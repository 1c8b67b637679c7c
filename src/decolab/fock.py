"""Truncated-Fock-space operator algebra for a single bosonic mode.

Operators and density matrices are plain complex numpy arrays on the number
basis |0>, ..., |dim-1>, in dimensionless units hbar = omega = 1.  Energies
are in units of hbar*omega and the quadratures are scaled so that the vacuum
variance is 1/2 at every angle.

Arrays returned by the builders are marked read-only: operators are immutable
values and safe to share across parallel workers.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import eval_genlaguerre

from .exceptions import ConfigError, TruncationWarning

__all__ = [
    "ladder",
    "number_op",
    "kinetic",
    "quadrature",
    "fock_state",
    "superposition01",
    "density",
    "trace_distance",
    "WignerGrid",
    "wigner",
]


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def ladder(dim: int) -> np.ndarray:
    """Annihilation operator a with <n-1|a|n> = sqrt(n)."""
    if dim < 2:
        raise ConfigError(f"ladder operator needs dim >= 2, got {dim}")
    a = np.zeros((dim, dim), dtype=complex)
    ns = np.arange(1, dim)
    a[ns - 1, ns] = np.sqrt(ns)
    return _frozen(a)


def number_op(dim: int) -> np.ndarray:
    """Number operator N = a†a."""
    if dim < 2:
        raise ConfigError(f"number operator needs dim >= 2, got {dim}")
    return _frozen(np.diag(np.arange(dim, dtype=float)).astype(complex))


def kinetic(dim: int) -> np.ndarray:
    """Kinetic energy K in units hbar*omega: K = (2N + 1 - a†² - a²)/4.

    The a² term needs at least three levels, hence dim >= 3.
    """
    if dim < 3:
        raise ConfigError(f"kinetic operator needs dim >= 3, got {dim}")
    a = ladder(dim)
    ad = a.conj().T
    k = 0.25 * (2.0 * number_op(dim) + np.eye(dim) - ad @ ad - a @ a)
    return _frozen(k)


def quadrature(theta: float, dim: int) -> np.ndarray:
    """Rotated quadrature x_theta = (a e^{-i theta} + a† e^{i theta})/sqrt(2).

    theta = 0 is position, theta = pi/2 momentum; vacuum variance is 1/2 for
    every theta.
    """
    a = ladder(dim)
    x = (a * np.exp(-1j * theta) + a.conj().T * np.exp(1j * theta)) / math.sqrt(2.0)
    return _frozen(x)


def fock_state(n: int, dim: int) -> np.ndarray:
    """Number state |n> as a ket vector."""
    if not 0 <= n < dim:
        raise ConfigError(f"fock level {n} outside basis of size {dim}")
    psi = np.zeros(dim, dtype=complex)
    psi[n] = 1.0
    return _frozen(psi)


def superposition01(dim: int) -> np.ndarray:
    """The Ramsey state (|0> + |1>)/sqrt(2)."""
    psi = np.zeros(dim, dtype=complex)
    psi[0] = psi[1] = 1.0 / math.sqrt(2.0)
    return _frozen(psi)


def density(psi: np.ndarray) -> np.ndarray:
    """Pure-state density matrix |psi><psi|."""
    psi = np.asarray(psi, dtype=complex)
    return _frozen(np.outer(psi, psi.conj()))


def trace_distance(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Trace distance (1/2)||rho - sigma||_1 between two Hermitian matrices."""
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(rho - sigma))))


#: ``wigner`` warns when its grid captures less than this share of the state
WIGNER_MASS_FLOOR = 0.98


@dataclass(frozen=True)
class WignerGrid:
    """Sampled Wigner function on a rectangular phase-space grid.

    Quadrature units: vacuum variance 1/2, so the vacuum peak is W(0,0)=1/pi
    and the discrete integral of ``values`` times the cell area is ~1 for
    states well contained in the grid.
    """

    x: np.ndarray          # (nx,) position samples
    p: np.ndarray          # (np,) momentum samples
    values: np.ndarray     # (nx, np) real
    captured_mass: float   # discrete integral of values over the grid

    def to_csv(self, path) -> None:
        """Write `x,p,w` rows, row-major over the grid, in one write."""
        # one template per grid row, built once from the p axis: each row
        # fills in its x and formats its values in one % pass
        row = "".join(f"{{x}},{pj:.12g},%.12g\n" for pj in self.p.tolist())
        text = "".join(row.replace("{x}", f"{xi:.12g}") % tuple(w)
                       for xi, w in zip(self.x.tolist(), self.values.tolist()))
        with open(path, "w") as fh:
            fh.write("x,p,w\n" + text)


def wigner(rho: np.ndarray, x: np.ndarray, p: np.ndarray) -> WignerGrid:
    """Wigner function of rho via the displaced-parity Laguerre series.

    Exact (to floating point) for a truncated density matrix; no FFT grid
    artifacts.  Normalization: integral of W over dx dp is 1 and the vacuum
    gives W(0,0) = 1/pi.  Warns with a TruncationWarning when the grid
    captures less than ``WIGNER_MASS_FLOOR`` of the state.
    """
    rho = np.asarray(rho, dtype=complex)
    dim = rho.shape[0]
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    alpha = (x[:, None] + 1j * p[None, :]) / math.sqrt(2.0)
    aa4 = 4.0 * np.abs(alpha) ** 2
    gauss = np.exp(-0.5 * aa4)

    # W_{|j><k|}(x,p) for k <= j; k > j entries follow by conjugation.
    w = np.zeros_like(alpha, dtype=complex)
    lnfact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, dim)))))
    for k in range(dim):
        for j in range(k, dim):
            r = rho[j, k]
            if j > k:
                r = r + np.conj(rho[k, j])  # conjugate partner |k><j|
            elif abs(rho[j, k]) == 0.0:
                continue
            if abs(r) == 0.0:
                continue
            pref = (-1) ** k * math.exp(0.5 * (lnfact[k] - lnfact[j]))
            poly = eval_genlaguerre(k, j - k, aa4)
            base = pref * (2.0 * alpha) ** (j - k) * gauss * poly / math.pi
            if j > k:
                w += np.real(r * base)  # r*base + conj pair collapse to twice the real part
            else:
                w += np.real(r) * base
    values = np.real(w)

    dx = x[1] - x[0] if len(x) > 1 else 1.0
    dp = p[1] - p[0] if len(p) > 1 else 1.0
    mass = float(np.sum(values) * dx * dp)
    if mass < WIGNER_MASS_FLOOR:
        warnings.warn(
            TruncationWarning(
                f"Wigner grid captures only {mass:.4f} of the state", captured_mass=mass
            )
        )
    return WignerGrid(x=_frozen(x.copy()), p=_frozen(p.copy()),
                      values=_frozen(values), captured_mass=mass)

