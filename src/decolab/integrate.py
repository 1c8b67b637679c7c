"""Time evolution of density matrices, sampled on a fixed-step grid.

Classical RK4 on the real form X = Re rho + Im rho of the Hermitian state,
with trace renormalization per step.  The generators preserve Hermiticity, so
they map real forms to real forms with real products only, and rho comes back
as (X + Xᵀ)/2 + i (X - Xᵀ)/2, Hermitian by construction; the trace drift
removed by the renormalization is recorded, so that long runs stay valid
while the error remains observable.  Problems at the parameter scales of
interest are non-stiff, and fixed steps keep runs bit-reproducible.  For a
constant generator, ``propagate_blocks`` samples the exact exp(L t) on the
same grid, one parity block of L at a time.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy.linalg import expm

from . import generators
from .exceptions import ConfigError, PositivityError
from .generators import Model, ModelParams

__all__ = ["EvolutionResult", "evolve", "evolve_nonmarkov", "propagate_blocks",
           "parity_blocks", "observable", "default_dt", "real_form", "hermitian"]

#: 200 steps per oscillator period; resolves the fastest interaction-picture
#: phase (~4 omega) comfortably.
default_dt = 2.0 * np.pi / 200.0

#: a sampled state whose smallest eigenvalue falls below this has lost positivity
POSITIVITY_FLOOR = -1e-6


@dataclass
class EvolutionResult:
    """Sampled trajectory of a master-equation run with validity diagnostics."""

    times_omega: np.ndarray          # dimensionless omega*t at samples
    states: np.ndarray               # (n_samples, dim, dim)
    omega: float = 1.0               # rad/s, for the seconds axis
    trace_drift: np.ndarray = field(default=None)   # |tr-1| before renorm, per sample
    # max |rho - rho†| before the fix: 0 by construction on RK4's real form,
    # measured on the exact blocks
    herm_drift: np.ndarray = field(default=None)
    min_eigenvalue: np.ndarray = field(default=None)
    propagator: str = "rk4"          # rk4 | exact-blocks

    def expect(self, name: str) -> np.ndarray:
        f = observable(name)
        return np.array([f(s) for s in self.states])

    def to_csv(self, path, observables: Sequence[str]) -> None:
        """Write `t_omega,t_seconds,<obs>...` rows for the declared observables."""
        _write_csv(path, self.times_omega, self.omega,
                   [(name, self.expect(name)) for name in observables])


def _write_csv(path, times_omega: np.ndarray, omega: float, columns) -> None:
    """Write `t_omega,t_seconds,<name>...` rows from (name, values) pairs."""
    with open(path, "w") as fh:
        fh.write("t_omega,t_seconds," + ",".join(name for name, _ in columns) + "\n")
        for i, t in enumerate(times_omega):
            row = [f"{t:.12g}", f"{t / omega:.12g}"]
            row += [f"{values[i]:.12g}" for _, values in columns]
            fh.write(",".join(row) + "\n")


_OBS_RE = re.compile(r"^(re_|im_|abs_)?rho_(\d+)_?(\d+)$")


def _parse_observable(name: str) -> tuple[str | None, int, int]:
    """(prefix, i, j) of an observable name like `re_rho_01`."""
    m = _OBS_RE.match(name)
    if not m:
        raise ValueError(f"cannot parse observable {name!r}")
    prefix, i, j = m.group(1), int(m.group(2)), int(m.group(3))
    if prefix is None and i != j:
        raise ValueError(f"off-diagonal observable {name!r} needs re_/im_/abs_ prefix")
    return prefix, i, j


def observable(name: str) -> Callable[[np.ndarray], float]:
    """Matrix-element observable from a name like `rho_11` or `re_rho_01`.

    `rho_nn` is the (real) population; off-diagonal elements need an explicit
    re_/im_/abs_ prefix.  Two-digit suffixes split in the middle; longer
    indices use an underscore (`rho_10_10`).
    """
    prefix, i, j = _parse_observable(name)
    part = {"re_": np.real, "im_": np.imag, "abs_": np.abs, None: np.real}[prefix]
    return lambda rho: float(part(rho[i, j]))


def _sample_steps(t_end: float, dt: float, sample_every: int) -> list[int]:
    """Steps that end in a sample: 0, every ``sample_every``-th and the last
    of round(t_end/dt) steps (at least one)."""
    if not dt > 0:
        raise ValueError("dt must be positive")
    if sample_every < 1:
        raise ValueError("sample_every must be at least 1")
    n_steps = max(1, int(round(t_end / dt)))
    steps = list(range(0, n_steps + 1, sample_every))
    return steps if steps[-1] == n_steps else steps + [n_steps]


def real_form(rho: np.ndarray) -> np.ndarray:
    """X = Re rho + Im rho, the real form of a Hermitian rho: Re rho is
    symmetric and Im rho antisymmetric, so X holds both, and X_nn = rho_nn."""
    rho = np.asarray(rho)
    return rho.real + rho.imag


def hermitian(x: np.ndarray) -> np.ndarray:
    """The Hermitian rho = S + i T of a real form X, with S = (X + Xᵀ)/2 and
    T = (X - Xᵀ)/2; Hermitian bit for bit, with a real diagonal."""
    rho = np.empty(x.shape, dtype=complex)
    rho.real = x + x.T
    rho.imag = x - x.T
    rho *= 0.5
    return rho


def _corrected(rho: np.ndarray) -> np.ndarray:
    """rho re-Hermitized ((rho+rho†)/2) and renormalized to unit trace."""
    h = rho + rho.conj().T
    h *= 0.5
    h /= np.real(np.trace(h))
    return h


def _stage(x: np.ndarray, h: float, k: np.ndarray) -> np.ndarray:
    """x + h k, as a fresh real array."""
    out = np.multiply(h, k, dtype=float)
    out += x
    return out


class _Samples:
    """Sampled states and their diagnostics, checked as they are added; the
    first is rho0 as given."""

    def __init__(self, rho0: np.ndarray, dt: float, omega: float):
        self.dt, self.omega = dt, omega
        self.times, self.states, self.tdrift, self.hdrift, self.mineig = [], [], [], [], []
        self.record(0, np.asarray(rho0, dtype=complex), 0.0, 0.0)

    def add(self, step: int, rho: np.ndarray) -> None:
        """Record the drift that ``_corrected`` removes from rho, then the
        corrected rho."""
        trace_drift = abs(float(np.real(np.trace(rho))) - 1.0)
        herm_drift = float(np.max(np.abs(rho - rho.conj().T)))
        self.record(step, _corrected(rho), trace_drift, herm_drift)

    def record(self, step: int, rho: np.ndarray, trace_drift: float,
               herm_drift: float) -> None:
        t = step * self.dt
        self.times.append(t)
        self.states.append(rho.copy())
        self.tdrift.append(trace_drift)
        self.hdrift.append(herm_drift)
        if not np.all(np.isfinite(rho)):
            raise PositivityError(f"state is not finite at omega*t={t:.6g}",
                                  step=len(self.times) - 1, min_eigenvalue=np.nan)
        lo = float(np.linalg.eigvalsh(rho)[0])
        self.mineig.append(lo)
        if lo < POSITIVITY_FLOOR:
            raise PositivityError(
                f"state lost positivity at omega*t={t:.6g} (min eig {lo:.3e})",
                step=len(self.times) - 1, min_eigenvalue=lo)

    def result(self, propagator: str) -> EvolutionResult:
        return EvolutionResult(
            times_omega=np.array(self.times), states=np.array(self.states),
            omega=self.omega, trace_drift=np.array(self.tdrift),
            herm_drift=np.array(self.hdrift), min_eigenvalue=np.array(self.mineig),
            propagator=propagator)


def evolve(rho0: np.ndarray, rhs: Callable[[np.ndarray, float], np.ndarray],
           t_end: float, dt: float = default_dt, *, sample_every: int = 100,
           omega: float = 1.0) -> EvolutionResult:
    """Integrate d rho/d(omega t) = rhs(rho, t) with classical RK4 on the real
    form X = ``real_form(rho)`` of the Hermitian rho0.

    ``rhs`` is the whole right-hand side on the real form, called with a real
    X and dimensionless t, and returns the real form of d rho/d(omega t): the
    ``generators`` right-hand sides do; wrap a complex one ``f(rho, t)`` as
    ``lambda x, t: real_form(f(hermitian(x), t))``.  After every step X is
    renormalized to unit trace (tr rho = tr X); a sampled step records the
    trace drift before that and rho = ``hermitian(X)``, whose Hermiticity
    drift is 0 by construction.  Raises PositivityError when a sampled state
    dips below ``POSITIVITY_FLOOR`` or is not finite.
    """
    steps = _sample_steps(t_end, dt, sample_every)
    sampled = set(steps)
    samples = _Samples(rho0, dt, omega)
    x = real_form(rho0)
    half, sixth = 0.5 * dt, dt / 6.0
    for step in range(steps[-1]):
        t = step * dt
        k1 = rhs(x, t)
        k2 = rhs(_stage(x, half, k1), t + half)
        k3 = rhs(_stage(x, half, k2), t + half)
        k4 = rhs(_stage(x, dt, k3), t + dt)
        # x + dt/6 (((k1 + 2 k2) + 2 k3) + k4), accumulated in a fresh
        # array: the k belong to rhs and may be shared or read-only
        s = np.multiply(2.0, k2, dtype=float)
        s += k1
        s += 2.0 * k3
        s += k4
        s *= sixth
        s += x
        trace = s.trace()
        s /= trace
        x = s
        if step + 1 in sampled:
            samples.record(step + 1, hermitian(x), abs(float(trace) - 1.0), 0.0)
    return samples.result("rk4")


def parity_blocks(dim: int, damped: bool) -> list[np.ndarray]:
    """Row-major indices of the elements of rho in each block that a constant
    generator never couples.

    K and K² move n by even steps, so the phases and the double commutator
    conserve (m mod 2, n mod 2): four blocks.  Damping (a rho a†) moves
    (m, n) to (m-1, n-1), which conserves only (m - n) mod 2: two blocks.
    """
    m, n = np.divmod(np.arange(dim * dim), dim)
    key = (m - n) % 2 if damped else 2 * (m % 2) + n % 2
    return [np.flatnonzero(key == k) for k in np.unique(key)]


def _block_liouvillian(idx: np.ndarray, dim: int, model: Model) -> np.ndarray:
    """Rows and columns ``idx`` of the Liouvillian on row-major vec(rho) of
    R * rho - c [A, [A, rho]] + gamma (a rho a† - {N, rho}/2).

    X rho Y is X ⊗ Yᵀ on vec(rho); its block is X[m, m'] Yᵀ[n, n'] over the
    pairs (m, n), (m', n') of the block.  A and a are real, A symmetric.
    """
    m, n = np.divmod(idx, dim)

    def kron(x, y):
        return x[np.ix_(m, m)] * y[np.ix_(n, n)]

    # A² in complex arithmetic: OpenBLAS rounds some entries of a real A @ A
    # differently, and the blocks keep the bytes of a complex A
    op = np.asarray(model.op, dtype=complex)
    a = np.diag(generators._damping_factors(dim)[0], 1)
    eye, op2, gamma = np.eye(dim), op @ op, model.gamma
    return (np.diag(model.rates.ravel()[idx] - 0.5 * gamma * (m + n))
            - model.c * (kron(op2, eye) - 2.0 * kron(op, op) + kron(eye, op2))
            + gamma * kron(a, a))


def propagate_blocks(rho0: np.ndarray, model: Model, t_end: float,
                     dt: float = default_dt, *, sample_every: int = 100) -> EvolutionResult:
    """Sample exp(L t) rho0 exactly, on ``evolve``'s grid, for the constant
    generator L rho = R * rho - c [A, [A, rho]] + gamma (a rho a† - {N, rho}/2)
    of a model description from ``generators.model``.

    L is never formed whole: each parity block gets one ``expm`` per distinct
    sample interval (at most two), which carries that block's slice of rho
    from sample to sample, one block at a time.  A block whose slice of rho0
    is all zero stays zero and gets no ``expm``: the vacuum and |n⟩ occupy
    one block of four (of two with damping).  ``dt`` sets only the grid.
    Re-Hermitizing and renormalizing commute with exp(L t), so they are
    applied to each sample, after its drift is recorded, and not fed back.
    Raises PositivityError like ``evolve``.
    """
    steps = _sample_steps(t_end, dt, sample_every)
    gaps = [b - a for a, b in zip(steps, steps[1:])]
    dim = rho0.shape[0]
    flat = np.zeros((len(steps), dim * dim), dtype=complex)
    flat[0] = np.asarray(rho0, dtype=complex).ravel()
    for idx in parity_blocks(dim, damped=bool(model.gamma)):
        if not flat[0, idx].any():
            continue
        lv = _block_liouvillian(idx, dim, model)
        props = {g: expm(lv * (g * dt)) for g in set(gaps)}
        for i, g in enumerate(gaps, 1):
            flat[i, idx] = props[g] @ flat[i - 1, idx]
    samples = _Samples(rho0, dt, model.params.omega)
    for step, vec in zip(steps[1:], flat[1:]):
        samples.add(step, vec.reshape(dim, dim))
    return samples.result("exact-blocks")


def evolve_nonmarkov(rho0: np.ndarray, params: ModelParams, t_end: float,
                     dt: float, *, sample_every: int = 100) -> EvolutionResult:
    """Evolve under the exponential-memory-kernel master equation, with
    amplitude damping when ``params.gamma`` is non-zero.

    The memory term is re-evaluated at every RK4 stage time.  Requires an
    exponential kernel and dt at most a tenth of the (dimensionless)
    correlation time.
    """
    model = generators.model("gup-nonmarkov", params, rho0.shape[0])
    tau = model.tau
    if not tau:
        raise ConfigError("evolve_nonmarkov requires an exponential kernel")
    if dt > tau / 10.0:
        raise ConfigError(f"dt={dt:.3g} exceeds tau/10={tau / 10:.3g}; reduce the step")
    return evolve(rho0, lambda x, t: generators.gup_nonmarkov_rhs(x, t, model),
                  t_end, dt, sample_every=sample_every, omega=params.omega)
