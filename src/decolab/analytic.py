"""Closed-form results for the two fluctuation models.

Unless a docstring says otherwise, time and rates are dimensionless (omega*t,
gamma/omega, omega*tau_G, omega*tau_D) and energies are in units hbar*omega.
The perturbative decay formulas hold for t/tau_decay << 1; evaluations past
t/tau = 0.2 carry a ValidityWarning rather than erroring, so full-range
overlays remain possible with the extrapolation flagged.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import generators, integrate
from .exceptions import ConfigError, ValidityWarning
from .generators import KernelSpec, ModelParams, PLANCK, energy_level

__all__ = [
    "energy_level",
    "g_kernel",
    "FreeParticlePair",
    "free_particle_coherence",
    "k2_matrix_element",
    "c_correlator",
    "gup_coherence01",
    "gup_populations",
    "breuer_observables",
    "damping_series_element",
    "ground_state_variance",
    "deformed_ground_variances",
    "VALIDITY_LIMIT",
]

#: perturbative formulas are trusted up to t/tau_decay = 0.2
VALIDITY_LIMIT = 0.2


def _check_validity(t, tau_decay: float) -> None:
    if tau_decay <= 0 or math.isinf(tau_decay):
        return
    worst = float(np.max(np.asarray(t))) / tau_decay
    if worst > VALIDITY_LIMIT:
        warnings.warn(ValidityWarning(
            f"t/tau = {worst:.3g} exceeds the perturbative window {VALIDITY_LIMIT}"))


def g_kernel(t, kernel: KernelSpec):
    """Double time integral g(t) of the kernel: delta -> t/2; exponential ->
    t/2 - (tau/2)(1 - exp(-t/tau)).  Units follow the units of t and tau.
    """
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("t must be non-negative")
    if kernel.kind == "delta":
        g = 0.5 * t
    else:
        tau = kernel.tau
        g = 0.5 * t - 0.5 * tau * (1.0 - np.exp(-t / tau))
    return g if g.ndim else float(g)


@dataclass(frozen=True)
class FreeParticlePair:
    """Pair of momentum eigenvalues (SI units) for free-particle coherences."""

    p_a: float   # kg m/s
    p_b: float
    mass: float  # kg

    def __post_init__(self):
        if not self.mass > 0:
            raise ValueError("mass must be positive")

    def delta_e(self, k: int) -> float:
        """(p_a²/2m)^k - (p_b²/2m)^k in J^k."""
        ka = self.p_a ** 2 / (2.0 * self.mass)
        kb = self.p_b ** 2 / (2.0 * self.mass)
        return ka ** k - kb ** k


def free_particle_coherence(pair: FreeParticlePair, t, params: ModelParams,
                            hbar: float = PLANCK.hbar):
    """Momentum-basis coherence rho_ab(t)/rho_ab(0) of a free particle (SI).

    Phase from the deformed unitary evolution, damping from the fluctuation
    dissipator through the kernel integral g(t).  Equal kinetic energies
    (p_b = ±p_a) give pure phase.
    """
    t = np.asarray(t, dtype=float)
    de1 = pair.delta_e(1)
    de2 = pair.delta_e(2)
    a_p = params.ap_hw / (hbar * params.omega)
    phase = np.exp(-1j * (de1 + 4.0 * a_p * de2 * params.beta_bar) * t / hbar)
    decay = np.exp(-(16.0 * a_p ** 2 * params.kappa / hbar ** 2) * de2 ** 2
                   * np.asarray(g_kernel(t, params.kernel)))
    out = phase * decay
    return out if out.ndim else complex(out)


# K² matrix elements (units hbar²omega²) between the low-lying number states;
# the phase carries the anharmonic level splittings.
_K2_TABLE = {
    (0, 0): 3.0 / 16.0,
    (1, 1): 15.0 / 16.0,
    (0, 2): -3.0 * math.sqrt(2.0) / 8.0,
    (0, 4): math.sqrt(6.0) / 8.0,
    (1, 3): -5.0 * math.sqrt(6.0) / 8.0,
    (1, 5): math.sqrt(30.0) / 8.0,
}


def k2_matrix_element(m: int, n: int, tau: float, beta_bar: float = 0.0,
                      ap_hw: float = 0.0) -> complex:
    """<m|K²ᴵ(tau)|n> in units hbar²omega² from the closed-form table.

    Entries with odd m-n or |m-n| > 4 vanish identically; listed entries and
    their conjugates carry the phase exp(i (E_m - E_n) tau).  Anything else is
    outside the table and should be computed with generators.heisenberg_k2.
    """
    if m < 0 or n < 0:
        raise ValueError("indices must be non-negative")
    if (m - n) % 2 or abs(m - n) > 4:
        return 0.0 + 0.0j
    key = (m, n) if (m, n) in _K2_TABLE else (n, m)
    if key not in _K2_TABLE:
        raise ConfigError(
            f"element ({m},{n}) not tabulated; use generators.heisenberg_k2")
    # K² is real symmetric, so the magnitude is order-independent; the phase
    # uses the requested index order.
    mag = _K2_TABLE[key]
    de = energy_level(m, beta_bar, ap_hw) - energy_level(n, beta_bar, ap_hw)
    return complex(mag * np.exp(1j * de * tau))


def c_correlator(tau: float, t_prime: float, beta_bar: float = 0.0,
                 ap_hw: float = 0.0) -> complex:
    """Double-commutator coherence kernel C(tau, t') in units hbar⁴omega⁴.

    C = <0|[K²ᴵ(tau), [K²ᴵ(t'), rho_0+1]]|1> for the initial Ramsey
    superposition; C(tau, tau) = 15/8.
    """
    e = lambda n: energy_level(n, beta_bar, ap_hw)
    u = tau - t_prime
    return complex(
        9.0 / 32.0
        + (9.0 / 64.0) * np.exp(1j * (e(0) - e(2)) * u)
        + (3.0 / 64.0) * np.exp(1j * (e(0) - e(4)) * u)
        + (75.0 / 64.0) * np.exp(-1j * (e(1) - e(3)) * u)
        + (15.0 / 64.0) * np.exp(-1j * (e(1) - e(5)) * u))


def gup_coherence01(t, gamma: float, tau_g: float, beta_bar: float = 0.0,
                    ap_hw: float = 0.0):
    """Perturbative 0-1 coherence of the Ramsey state under the deformation
    noise: (1/2) e^{-i(E0-E1)t} e^{-gamma t/2} (1 - (30/8) t/tau_G).
    """
    t = np.asarray(t, dtype=float)
    _check_validity(t, tau_g)
    de = energy_level(0, beta_bar, ap_hw) - energy_level(1, beta_bar, ap_hw)
    out = (0.5 * np.exp(-1j * de * t) * np.exp(-0.5 * gamma * t)
           * (1.0 - 3.75 * t / tau_g))
    return out if out.ndim else complex(out)


def gup_populations(t, gamma: float, tau_g: float):
    """Perturbative populations: ground-state survival 1 - (6/8) t/tau_G and
    excited-state survival e^{-gamma t} (1 - (45/8) t/tau_G).
    """
    t = np.asarray(t, dtype=float)
    _check_validity(t, tau_g)
    p00 = 1.0 - 0.75 * t / tau_g
    p11 = np.exp(-gamma * t) * (1.0 - 5.625 * t / tau_g)
    if t.ndim:
        return p00, p11
    return float(p00), float(p11)


def breuer_observables(t, gamma: float, tau_d: float):
    """Perturbative metric-fluctuation observables (coh01, p00, p11):
    coefficients (3/8, 1/8, 3/8) in t/tau_D on top of the damping factors.
    """
    t = np.asarray(t, dtype=float)
    _check_validity(t, tau_d)
    coh = 0.5 * np.exp(1j * t) * np.exp(-0.5 * gamma * t) * (1.0 - 0.375 * t / tau_d)
    p00 = 1.0 - 0.125 * t / tau_d
    p11 = np.exp(-gamma * t) * (1.0 - 0.375 * t / tau_d)
    if t.ndim:
        return coh, p00, p11
    return complex(coh), float(p00), float(p11)


def damping_series_element(n1: int, n2: int, t: float, gamma: float,
                           beta_bar: float, ap_hw: float, rho0: np.ndarray,
                           n_max: int | None = None) -> complex:
    """<n1|rho_1(t)|n2> under anharmonic phases plus amplitude damping.

    Solves the bidiagonal chain d r_j/dt = f_j r_j + gamma sqrt((n1+j+1)(n2+j+1))
    r_{j+1}, with f(n1,n2) = -i(E_1 - E_2) - gamma (n1+n2)/2, exactly via a
    matrix exponential; equivalent to resumming the iterated-integral series.
    """
    rho0 = np.asarray(rho0, dtype=complex)
    dim = rho0.shape[0]
    chain = dim - max(n1, n2)
    if chain < 1:
        raise ValueError("initial state has no support at (n1, n2)")
    if n_max is not None:
        keep = min(chain, n_max + 1)
        dropped = [abs(rho0[n1 + j, n2 + j]) for j in range(keep, chain)]
        if dropped and max(dropped) > 1e-10:
            raise ConfigError(
                f"series truncation at n_max={n_max} drops weight {max(dropped):.2e}")
        chain = keep
    a = np.zeros((chain, chain), dtype=complex)
    for j in range(chain):
        de = (energy_level(n1 + j, beta_bar, ap_hw)
              - energy_level(n2 + j, beta_bar, ap_hw))
        a[j, j] = -1j * de - 0.5 * gamma * (n1 + n2 + 2 * j)
        if j + 1 < chain:
            a[j, j + 1] = gamma * math.sqrt((n1 + j + 1) * (n2 + j + 1))
    r0 = np.array([rho0[n1 + j, n2 + j] for j in range(chain)])
    return complex((integrate.expm(a * t) @ r0)[0])


def ground_state_variance(theta, epsilon: float):
    """Deformed ground-state quadrature variance 1/2 - (epsilon/4) cos(2 theta).

    The max/min variance ratio is (2+eps)/(2-eps); |epsilon| must stay below 2.
    """
    if abs(epsilon) >= 2.0:
        raise ValueError("|epsilon| must be below 2")
    theta = np.asarray(theta, dtype=float)
    v = 0.5 - 0.25 * epsilon * np.cos(2.0 * theta)
    return v if v.ndim else float(v)


def deformed_ground_variances(beta_bar: float, ap_hw: float, dim: int = 40):
    """Quadrature variances of the exact (truncated) deformed ground state.

    Diagonalizes N + 1/2 + 4 ap_hw beta_bar K² and returns (var_x, var_p) of
    its ground state: the pair {1/2 + eps/4, 1/2 - eps/4} to first order in
    eps = 6 beta_bar ap_hw.
    """
    from . import fock
    h = generators.h_full(dim, beta_bar, ap_hw)
    _, vecs = np.linalg.eigh(h)
    gs = vecs[:, 0]
    out = []
    for theta in (0.0, math.pi / 2.0):
        q = fock.quadrature(theta, dim)
        mean = np.real(gs.conj() @ q @ gs)
        out.append(float(np.real(gs.conj() @ q @ q @ gs) - mean ** 2))
    return tuple(out)

