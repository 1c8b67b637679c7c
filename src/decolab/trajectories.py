"""Stochastic-Schrödinger Monte-Carlo engine for the fluctuation models.

Each trajectory takes Strang split steps (Strang, SIAM J. Numer. Anal. 5,
1968) exp(-i H' dt/2) exp(-i g dW A) exp(-i H' dt/2), unitary and so
norm-conserving, with H', A and g from a model description
(``generators.model``) and dW drawn from its white or Ornstein-Uhlenbeck
noise.  With (Λ, V) = eigh(A), kets are carried as phi = V† exp(-i H' dt/2)
psi: a step is the phase exp(-i g dW Λ) and one product with the constant
W = V† exp(-i H' dt) V, and the half step is undone at samples only.
Averaged over a white increment the step is exactly exp(L_H dt/2) exp(L_D dt)
exp(L_H dt/2), a second-order splitting of the master equation that the
ensemble runs are used to validate.

Determinism: every trajectory draws from its own (seed, stream) counter-based
RNG, and the ensemble reduction is an index-ordered sum, so results are
bit-identical regardless of how trajectories are chunked across workers.
The ensemble is streamed: a chunk's kets are folded into the running sums one
sample at a time, as the split step reaches it, trajectory by trajectory in
index order, so memory holds the sums (samples x dim x dim) and the chunk's
noise increments (chunk x steps), never a chunk's kets at every sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import integrate
from .exceptions import ConfigError
from .generators import Model

__all__ = ["NoisePath", "sample_noise", "evolve_trajectory", "ensemble_average",
           "EnsembleResult"]


@dataclass(frozen=True)
class NoisePath:
    """Sampled deformation-noise increments for one trajectory.

    For ``white`` noise the increments are i.i.d. N(0, kappa*dt): the Wiener
    increments of the integrated deformation.  For ``ornstein-uhlenbeck`` they
    are x_k*dt with x_k the stationary OU process (variance kappa/(2 tau),
    autocorrelation kappa * exp(-|dt|/tau)/(2 tau)), matching the exponential
    kernel.
    """

    dt: float
    increments: np.ndarray


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(stream,)))


def sample_noise(kind: str, kappa_dimless: float, tau: float, dt: float,
                 n_steps: int, seed: int, stream: int = 0) -> NoisePath:
    """Draw one reproducible noise path (dimensionless time units).

    ``tau`` is the OU correlation time in omega*t units and must be at least
    5*dt to be resolved by the stepping.
    """
    if not dt > 0:
        raise ValueError("dt must be positive")
    if kind not in ("white", "ornstein-uhlenbeck"):
        raise ValueError(f"unknown noise kind {kind!r}")
    rng = _rng(seed, stream)
    if kappa_dimless == 0.0:
        inc = np.zeros(n_steps)
    elif kind == "white":
        inc = rng.normal(0.0, math.sqrt(kappa_dimless * dt), size=n_steps)
    else:
        if tau < 5.0 * dt:
            raise ConfigError(f"OU tau={tau:.3g} unresolved at dt={dt:.3g} (need tau >= 5 dt)")
        decay = math.exp(-dt / tau)
        stat_sd = math.sqrt(kappa_dimless / (2.0 * tau))
        kick_sd = stat_sd * math.sqrt(1.0 - decay ** 2)
        val = rng.normal(0.0, stat_sd)
        kicks = rng.normal(0.0, kick_sd, size=n_steps)
        x = []
        for kick in kicks.tolist():  # the AR(1) recursion, on Python floats
            x.append(val)
            val = val * decay + kick
        inc = np.array(x) * dt
    inc.setflags(write=False)
    return NoisePath(dt=dt, increments=inc)


def evolve_trajectory(psi0: np.ndarray, model: Model, noise: NoisePath,
                      *, sample_every: int = 1):
    """Propagate one pure state under a frozen noise realization.

    Damping is not supported in trajectory mode (the dissipator being
    validated is gamma-independent).  Returns (times, kets) with kets sampled
    every ``sample_every`` steps (always including t=0 and the endpoint).
    """
    if model.gamma != 0.0:
        raise ConfigError("trajectory mode requires gamma = 0")
    psi0 = np.asarray(psi0, dtype=complex)
    if abs(np.linalg.norm(psi0) - 1.0) > 1e-10:
        raise ValueError("psi0 must be normalized")
    steps = integrate._sample_grid(noise.increments.shape[0], sample_every)
    kets = [k[0] for k in _run_batch(psi0[None, :], model, noise.increments[None, :],
                                     noise.dt, steps)]
    return np.array(steps) * noise.dt, np.array(kets)


def _run_batch(psis: np.ndarray, model: Model, increments: np.ndarray,
               dt: float, steps: list[int]):
    """Yield the (batch, dim) kets at each of ``steps`` (``_sample_grid``)."""
    levels = model.levels
    half = np.exp(-0.5j * dt * levels)
    # the eigh of a complex A: for K² that is the array the split step has
    # always diagonalised, so the trajectories keep their bytes
    lam, v = np.linalg.eigh(np.asarray(model.op, dtype=complex))
    # Kets are (1, dim) rows of a stack, so every product is its own call: one
    # BLAS product over the batch rounds a one-row batch differently, which
    # would make results depend on the chunking.  As rows, phi = (psi half) V*
    # and a step multiplies by W^T = V^T exp(-i H' dt) V*.
    prop = (v.T * np.exp(-1j * dt * levels)) @ v.conj()
    phase_rates = -1j * model.g * lam

    yield psis
    phi = (psis * half)[:, None, :] @ v.conj()
    for start, stop in zip(steps, steps[1:]):
        for k in range(start, stop):
            phase = np.exp(increments[:, k, None, None] * phase_rates)
            phi = (phase * phi) @ prop
        phi /= np.linalg.norm(phi, axis=2, keepdims=True)
        yield ((phi @ v.T) * half.conj())[:, 0, :]


@dataclass
class EnsembleResult:
    """Noise-averaged state with per-element Monte-Carlo standard errors."""

    times_omega: np.ndarray   # (n_samples,)
    mean_states: np.ndarray   # (n_samples, dim, dim)
    stderr: np.ndarray        # (n_samples, dim, dim) real
    n_traj: int
    omega: float = 1.0

    def observable_stderr(self, name: str) -> np.ndarray:
        """An observable's standard error at each sample: the combined Re/Im
        error of its matrix element (conservative for re_/im_ projections)."""
        _, a, b = integrate._parse_observable(name)
        return self.stderr[:, a, b]

    def to_csv(self, path, observables) -> None:
        cols = {}
        for name in observables:
            cols[name] = integrate.observable(name)(self.mean_states)
            cols["stderr_" + name] = self.observable_stderr(name)
        integrate._write_csv(path, self.times_omega, self.omega, cols.items())


def ensemble_average(psi0: np.ndarray, model: Model, n_traj: int,
                     seed: int, *, dt: float, n_steps: int,
                     sample_every: int = 1, chunk_size: int = 256) -> EnsembleResult:
    """Average |psi><psi| over ``n_traj`` independently seeded trajectories of
    a model description, each under the description's noise.

    Reduction order is fixed by trajectory index, so the result does not
    depend on ``chunk_size``.
    """
    if n_traj < 100:
        raise ValueError("ensemble needs at least 100 trajectories")
    steps = integrate._sample_grid(n_steps, sample_every)
    if model.gamma != 0.0:
        raise ConfigError("ensemble mode requires gamma = 0")
    psi0 = np.asarray(psi0, dtype=complex)
    dim = psi0.shape[0]

    sum_rho = np.zeros((len(steps), dim, dim), dtype=complex)
    sum_sq = np.zeros(sum_rho.shape)   # elementwise |rho_traj|² accumulator
    for start in range(0, n_traj, chunk_size):
        count = min(chunk_size, n_traj - start)
        inc = np.stack([
            sample_noise(model.noise, model.kappa, model.tau, dt, n_steps,
                         seed, stream=start + j).increments
            for j in range(count)])
        kets = _run_batch(np.broadcast_to(psi0, (count, dim)).copy(),
                          model, inc, dt, steps)
        for s, sample in enumerate(kets):
            _fold(sample, sum_rho[s], sum_sq[s])

    mean = sum_rho / n_traj
    var = sum_sq / n_traj - (sum_rho.real / n_traj) ** 2 - (sum_rho.imag / n_traj) ** 2
    stderr = np.sqrt(np.maximum(var, 0.0) / n_traj)
    return EnsembleResult(times_omega=np.array(steps) * dt, mean_states=mean,
                          stderr=stderr, n_traj=n_traj, omega=model.params.omega)


#: trajectories per fold block, so that the fold's temporaries stay near
#: 128 KB at dim 16 whatever the chunk: at 256 trajectories, dim 16 and 120
#: steps, folding the whole chunk at once peaked at 2.6 MB traced and ran
#: 12 % slower than blocks of 32 (0.9 MB; 2-core x86 host, BLAS 1 thread)
_FOLD_BLOCK = 32


def _fold(kets: np.ndarray, sum_rho: np.ndarray, sum_sq: np.ndarray) -> None:
    """Add each ket's |psi><psi| to ``sum_rho`` and its elementwise |.|² to
    ``sum_sq``, in place and strictly in row order: the running sum goes into
    row 0 of a block and ``np.add.reduce`` over axis 0 adds the rows one after
    another, so the sums are bit-identical for any chunking."""
    for b in range(0, kets.shape[0], _FOLD_BLOCK):
        k = kets[b:b + _FOLD_BLOCK]
        r = np.einsum("bi,bj->bij", k, k.conj())
        q = r.real ** 2 + r.imag ** 2
        r[0] += sum_rho
        q[0] += sum_sq
        np.add.reduce(r, axis=0, out=sum_rho)
        np.add.reduce(q, axis=0, out=sum_sq)
