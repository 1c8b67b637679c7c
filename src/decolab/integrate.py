"""Fixed-step time evolution of density matrices.

Classical RK4 with per-step re-Hermitization and trace renormalization; the
drift removed by those corrections is recorded so that long runs stay valid
while the error remains observable.  Problems at the parameter scales of
interest are non-stiff, and fixed steps keep runs bit-reproducible.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import generators
from .exceptions import KernelRoutingError, PositivityError, StepSizeError
from .generators import ModelParams

__all__ = ["EvolutionResult", "evolve", "evolve_nonmarkov", "observable", "default_dt"]

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
    herm_drift: np.ndarray = field(default=None)    # max |rho - rho†| before fix
    min_eigenvalue: np.ndarray = field(default=None)

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


def evolve(rho0: np.ndarray, rhs: Callable[[np.ndarray, float], np.ndarray],
           t_end: float, dt: float = default_dt, *, sample_every: int = 100,
           omega: float = 1.0) -> EvolutionResult:
    """Integrate d rho/d(omega t) = rhs(rho, t) with classical RK4.

    ``rhs`` is the whole right-hand side, called with dimensionless t.  After
    every step rho is re-Hermitized ((rho+rho†)/2) and trace-renormalized; the
    drift is recorded before correction.  Raises PositivityError when a
    sampled state dips below ``POSITIVITY_FLOOR``.
    """
    if not dt > 0:
        raise ValueError("dt must be positive")
    if sample_every < 1:
        raise ValueError("sample_every must be at least 1")

    n_steps = max(1, int(round(t_end / dt)))
    rho = np.array(rho0, dtype=complex)
    times, states, tdrift, hdrift, mineig = [], [], [], [], []

    step_trace_drift = 0.0
    step_herm_drift = 0.0

    def record(idx_t: float):
        times.append(idx_t)
        states.append(rho.copy())
        tdrift.append(step_trace_drift)
        hdrift.append(step_herm_drift)
        lo = float(np.linalg.eigvalsh(rho)[0])
        mineig.append(lo)
        if lo < POSITIVITY_FLOOR:
            raise PositivityError(
                f"state lost positivity at omega*t={idx_t:.6g} (min eig {lo:.3e})",
                step=len(times) - 1, min_eigenvalue=lo)

    record(0.0)
    for step in range(n_steps):
        t = step * dt
        k1 = rhs(rho, t)
        k2 = rhs(rho + 0.5 * dt * k1, t + 0.5 * dt)
        k3 = rhs(rho + 0.5 * dt * k2, t + 0.5 * dt)
        k4 = rhs(rho + dt * k3, t + dt)
        rho = rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

        tr = np.trace(rho)
        step_trace_drift = abs(float(np.real(tr)) - 1.0)
        step_herm_drift = float(np.max(np.abs(rho - rho.conj().T)))
        rho = 0.5 * (rho + rho.conj().T)
        rho = rho / np.real(np.trace(rho))

        if (step + 1) % sample_every == 0 or step == n_steps - 1:
            record((step + 1) * dt)

    return EvolutionResult(
        times_omega=np.array(times), states=np.array(states), omega=omega,
        trace_drift=np.array(tdrift), herm_drift=np.array(hdrift),
        min_eigenvalue=np.array(mineig))


def evolve_nonmarkov(rho0: np.ndarray, params: ModelParams, t_end: float,
                     dt: float, *, sample_every: int = 100) -> EvolutionResult:
    """Evolve under the exponential-memory-kernel master equation, with
    amplitude damping when ``params.gamma`` is non-zero.

    The memory term is re-evaluated at every RK4 stage time.  Requires an
    exponential kernel and dt at most a tenth of the (dimensionless)
    correlation time.
    """
    if params.kernel.kind != "exponential":
        raise KernelRoutingError("evolve_nonmarkov requires an exponential kernel")
    tau_dimless = params.kernel.tau * params.omega
    if dt > tau_dimless / 10.0:
        raise StepSizeError(
            f"dt={dt:.3g} exceeds tau/10={tau_dimless / 10:.3g}; reduce the step")
    return evolve(rho0, lambda rho, t: generators.gup_nonmarkov_rhs(rho, t, params),
                  t_end, dt, sample_every=sample_every, omega=params.omega)
