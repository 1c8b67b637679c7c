"""Right-hand-side builders for the oscillator master equations.

All generators work in dimensionless units (hbar = 1, time measured in
omega*t, energies in hbar*omega).  Physical inputs live in ModelParams and are
folded into dimensionless coefficients here, in one frozen description per
model (``model``).  The right-hand sides, the memory operator, the exact
block propagator and the trajectories take that description as an argument,
so a caller builds it once and no call looks it up again:

* deformed-commutator (double K² commutator) dissipator, Markovian and
  exponential-memory-kernel forms,
* metric-fluctuation (double K commutator) dissipator,
* amplitude damping at rate gamma, which each model generator adds last,
  so that it is the model's whole right-hand side,
* anharmonic RWA Hamiltonian and its non-RWA variant.

Every right-hand side is -i [H_RWA, rho] - c [A, [B, rho]] plus damping,
with B = A or the memory operator, and acts on the real form
X = Re rho + Im rho of a Hermitian rho (``integrate.real_form``).  The
generators preserve Hermiticity, so on that real space they are real maps
(the coherence-vector picture of Alicki and Lendi, *Quantum Dynamical
Semigroups and Applications*, 1987): with Δ_ab = E_a - E_b and B = Bᵣ + i Bᵢ,

    X' = -Δ∘Xᵀ - c [A, [Bᵣ, X] + [Bᵢ, Xᵀ]] + gamma (a X aᵀ - ((m+n)/2)∘X),

every product a real one, and the output is the real form of a Hermitian,
traceless matrix for every real X.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache

import numpy as np

from . import fock
from .exceptions import ConfigError

__all__ = [
    "PhysicalConstants",
    "PLANCK",
    "MODELS",
    "KernelSpec",
    "ModelParams",
    "h_rwa",
    "h_full",
    "Model",
    "model",
    "gup_markov_rhs",
    "gup_nonmarkov_rhs",
    "breuer_rhs",
    "damping_rhs",
    "heisenberg_k2",
    "energy_level",
]


#: the model names that ``model`` describes
MODELS = ("gup-markov", "gup-nonmarkov", "breuer", "damping-only")


@dataclass(frozen=True)
class PhysicalConstants:
    """CODATA-style constants used for unit conversion only."""

    planck_length: float = 1.616255e-35   # m
    planck_mass: float = 2.176434e-8      # kg
    planck_energy: float = 1.956082e9     # J
    planck_time: float = 5.391247e-44     # s
    hbar: float = 1.054571817e-34         # J s

    def a_p(self, mass: float) -> float:
        """Deformation coupling a_P = m l_P^2 / hbar^2 (1/J)."""
        return mass * self.planck_length ** 2 / self.hbar ** 2

    def ap_hw(self, mass: float, omega: float) -> float:
        """Dimensionless combination a_P * hbar * omega."""
        return self.a_p(mass) * self.hbar * omega


PLANCK = PhysicalConstants()


@dataclass(frozen=True)
class KernelSpec:
    """Noise autocorrelation shape f(t - t'), normalized to unit integral.

    ``delta`` is the white-noise (Markovian) limit; ``exponential`` is
    f(u) = exp(-|u|/tau) / (2 tau) with correlation time ``tau`` in seconds.
    """

    kind: str = "delta"
    tau: float = 0.0

    def __post_init__(self):
        if self.kind not in ("delta", "exponential"):
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        if self.kind == "exponential" and not self.tau > 0:
            raise ValueError("exponential kernel requires tau > 0")


@dataclass(frozen=True)
class ModelParams:
    """Physical parameters of the fluctuation models.

    omega     angular frequency (rad/s)
    gamma     energy relaxation rate (1/s)
    beta_bar  mean deformation parameter (dimensionless)
    kappa     deformation-fluctuation amplitude (s)
    tau_c     metric-fluctuation correlation time (s)
    ap_hw     dimensionless a_P * hbar * omega
    kernel    noise correlation shape
    """

    omega: float
    gamma: float = 0.0
    beta_bar: float = 0.0
    kappa: float = 0.0
    tau_c: float = 0.0
    ap_hw: float = 0.0
    kernel: KernelSpec = field(default_factory=KernelSpec)

    def __post_init__(self):
        if not 0 < self.omega < math.inf:
            raise ValueError("omega must be positive and finite")
        for name in ("gamma", "kappa", "tau_c", "ap_hw"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    # -- derived dimensionless coefficients ---------------------------------

    @property
    def gamma_dimless(self) -> float:
        return self.gamma / self.omega

    @classmethod
    def from_dimensionless(cls, *, omega_tau_g: float = math.inf,
                           omega_tau_d: float = math.inf,
                           gamma_dimless: float = 0.0, beta_bar: float = 0.0,
                           ap_hw: float = 1.5e-33, omega: float = 1.0,
                           kernel: KernelSpec | None = None) -> "ModelParams":
        """Desk-scale constructor from the dimensionless decay times."""
        kappa = 0.0
        if not math.isinf(omega_tau_g):
            try:
                kappa = 1.0 / (8.0 * ap_hw ** 2 * omega * omega_tau_g)
            except (ZeroDivisionError, OverflowError):
                kappa = math.nan
            if not 0 < kappa < math.inf:
                raise ValueError(f"a finite omega_tau_g needs a deformation coupling "
                                 f"ap_hw > 0; ap_hw={ap_hw!r} with omega_tau_g="
                                 f"{omega_tau_g!r} gives no finite noise strength")
        tau_c = 0.0 if math.isinf(omega_tau_d) else 1.0 / (omega * omega_tau_d)
        return cls(omega=omega, gamma=gamma_dimless * omega, beta_bar=beta_bar,
                   kappa=kappa, tau_c=tau_c, ap_hw=ap_hw,
                   kernel=kernel if kernel is not None else KernelSpec())


# -- cached operator builders -----------------------------------------------

def _real(op: np.ndarray) -> np.ndarray:
    """The real part of ``op``, contiguous and read-only: real products with
    it take half the flops of complex ones."""
    out = np.ascontiguousarray(op.real)
    out.setflags(write=False)
    return out


@lru_cache(maxsize=32)
def _k_op(dim: int) -> np.ndarray:
    """K, real."""
    return _real(fock.kinetic(dim))


@lru_cache(maxsize=32)
def _k2_op(dim: int) -> np.ndarray:
    """K², complex, for h_full and heisenberg_k2.  Its imaginary parts are all
    +0, so the real A of the gup description casts back to these bytes."""
    k = fock.kinetic(dim)
    k2 = k @ k
    k2.setflags(write=False)
    return k2


@lru_cache(maxsize=32)
def _damping_factors(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """(sqrt(n) for n = 1 .. dim-1, (m + n)/2 over the pairs (m, n)): the
    entries of the ladder a and of {N, .}/2 that damping uses."""
    n = np.arange(dim, dtype=float)
    return _real(np.sqrt(n[1:])), _real(0.5 * (n[:, None] + n[None, :]))


def energy_level(n, beta_bar: float = 0.0, ap_hw: float = 0.0):
    """Anharmonic level E_n = (n + 1/2) + (3/8) ap_hw beta_bar (n² + n + 1/2)."""
    n = np.asarray(n, dtype=float)
    e = (n + 0.5) + 0.375 * ap_hw * beta_bar * (n * n + n + 0.5)
    return e if e.ndim else float(e)


@dataclass(frozen=True, eq=False)
class Model:
    """One fluctuation model at given scales and cutoff, in omega*t units: its
    master equation R * rho - c [A, [A, rho]] plus damping, and the noise
    average of the random unitary exp(-i g xi A) that unravels it, with xi a
    white (tau = 0) or Ornstein-Uhlenbeck (tau > 0) noise of strength kappa,
    so that c = g² kappa / 2."""

    name: str            # one of MODELS
    levels: np.ndarray   # E_n of the diagonal H_RWA
    rates: np.ndarray    # R_ab = -i (E_a - E_b), so -i [H_RWA, rho] = R * rho
    delta: np.ndarray    # Δ_ab = E_a - E_b, real: R = -i Δ
    op: np.ndarray       # A: K² or K, real and read-only
    c: float             # double-commutator rate
    gamma: float         # amplitude-damping rate
    g: float             # coupling of the noise to A
    kappa: float         # noise strength
    tau: float           # noise correlation time; 0 for a delta kernel
    params: ModelParams  # the scales it stands for (kappa = 0 for damping-only)

    @property
    def noise(self) -> str:
        """The noise its trajectories draw: white or ornstein-uhlenbeck."""
        return "white" if self.tau == 0 else "ornstein-uhlenbeck"

    @cached_property
    def memory_parts(self) -> tuple[np.ndarray, np.ndarray]:
        """(z, 2z) of the memory operator, with z = 1 - tau R: its parts that
        do not depend on t, built on first use."""
        z = 1.0 - self.tau * self.rates
        return z, 2.0 * z

    @cached_property
    def phase_spread(self) -> float:
        """The largest |Δ_ab - Δ_a'b'| over the elements that the double
        commutator and damping couple, bounded by 2 max |E_i - E_j| over
        |i - j| up to A's bandwidth (4 for K, 8 for K² at harmonic levels)."""
        rows, cols = np.nonzero(self.op)
        band, e = int(np.max(np.abs(rows - cols))), self.levels
        return 2.0 * max(float(np.max(np.abs(e[k:] - e[:-k])))
                         for k in range(1, band + 1))


@lru_cache(maxsize=32)
def model(name: str, params: ModelParams, dim: int) -> Model:
    """The description of model ``name`` (one of MODELS) at ``params``, cut off
    at ``dim``: the one place a model name maps to its parts."""
    if name == "breuer":  # A = K, c = tau_c omega / 2 = 1/(2 omega tau_D)
        levels, op, g = energy_level(np.arange(dim)), _k_op(dim), 1.0
        kappa, tau = params.tau_c * params.omega, 0.0
        c = 0.5 * params.tau_c * params.omega
    elif name in MODELS:  # A = K², c = 8 (a_P hw)² kappa omega = 1/(omega tau_G)
        if name == "damping-only":
            params = replace(params, kappa=0.0, kernel=KernelSpec())
        levels = energy_level(np.arange(dim), params.beta_bar, params.ap_hw)
        op, g, kappa = _real(_k2_op(dim)), 4.0 * params.ap_hw, params.kappa * params.omega
        tau = (params.kernel.tau * params.omega
               if params.kernel.kind == "exponential" else 0.0)
        # with no noise, ap_hw² may overflow and must not be formed
        c = 8.0 * params.ap_hw ** 2 * params.kappa * params.omega if params.kappa else 0.0
    else:
        raise ValueError(f"unknown model {name!r}; choose from {MODELS}")
    delta = levels[:, None] - levels[None, :]
    rates = -1j * delta
    for array in (levels, rates, delta):
        array.setflags(write=False)
    return Model(name, levels, rates, delta, op, c, params.gamma_dimless, g, kappa,
                 tau, params)


def h_rwa(dim: int, beta_bar: float, ap_hw: float) -> np.ndarray:
    """Anharmonic oscillator Hamiltonian after the rotating wave approximation."""
    return np.diag(energy_level(np.arange(dim), beta_bar, ap_hw)).astype(complex)


def h_full(dim: int, beta_bar: float, ap_hw: float) -> np.ndarray:
    """Deformed Hamiltonian without the RWA: N + 1/2 + 4 ap_hw beta_bar K²."""
    return (np.diag(np.arange(dim) + 0.5).astype(complex)
            + 4.0 * ap_hw * beta_bar * _k2_op(dim))


def _double_commutator(a: np.ndarray, inner: tuple, x: np.ndarray) -> np.ndarray:
    """[A, [Bᵣ, X] + [Bᵢ, Xᵀ]], the real form of [A, [B, rho]] for real
    symmetric A, B = Bᵣ + i Bᵢ and the real form X of a Hermitian rho, with
    ``inner`` = (Bᵣ, Bᵢ) and Bᵢ None for a real B; every product is real."""
    br, bi = inner
    cx = br @ x
    cx -= x @ br
    if bi is not None:
        xt = x.T
        cx += bi @ xt
        cx -= xt @ bi
    y = a @ cx
    y -= cx @ a
    return y


def damping_rhs(rho: np.ndarray, gamma_dimless: float) -> np.ndarray:
    """Amplitude damping gamma (a rho a† - {N, rho}/2) in dimensionless time,
    with (a rho a†)[m, n] = (sqrt(m+1) rho[m+1, n+1]) sqrt(n+1) elementwise,
    which rounds as the dense product does.  a is real, so the same map
    takes a complex rho or its real form, and keeps the input's dtype."""
    root, half = _damping_factors(rho.shape[0])
    out = np.zeros_like(rho)
    out[:-1, :-1] = (root[:, None] * rho[1:, 1:]) * root
    out -= half * rho
    out *= gamma_dimless
    return out


def _lindblad_rhs(x: np.ndarray, m: Model, inner: tuple | None,
                  c: float, phases: bool = True) -> np.ndarray:
    """-Δ∘Xᵀ - c [A, [Bᵣ, X] + [Bᵢ, Xᵀ]] plus damping on the real form X, with
    (Bᵣ, Bᵢ) = ``inner``: every model's right-hand side, without its phases
    -Δ∘Xᵀ when ``phases`` is false.  Damping is added last so that the
    generator rounds as its terms' sum."""
    if c:
        out = _double_commutator(m.op, inner, x)
        out *= -c
        if phases:
            out -= x.T * m.delta
    else:
        out = x.T * m.delta.T if phases else np.zeros_like(x)   # Δᵀ = -Δ
    if m.gamma:
        out += damping_rhs(x, m.gamma)
    return out


def gup_markov_rhs(x: np.ndarray, model: Model, *, phases: bool = True) -> np.ndarray:
    """Right-hand side of the ``gup-markov`` (or ``damping-only``) description,
    -i [H_RWA, rho] - (1/(omega tau_G)) [K², [K², rho]] + damping, on the real
    form X of rho; without -i [H_RWA, rho] when ``phases`` is false."""
    return _lindblad_rhs(x, model, (model.op, None), model.c, phases)


def breuer_rhs(x: np.ndarray, model: Model, *, phases: bool = True) -> np.ndarray:
    """Right-hand side of the ``breuer`` description,
    -i [N, rho] - (tau_c omega / 2) [K, [K, rho]] + damping, on the real form X
    of rho; without -i [N, rho] when ``phases`` is false."""
    return _lindblad_rhs(x, model, (model.op, None), model.c, phases)


def heisenberg_k2(h_prime: np.ndarray, s: float) -> np.ndarray:
    """Interaction-picture K²(s) = exp(i H' s) K² exp(-i H' s).

    Computed via eigendecomposition of H'; shares the spectrum of K² for
    every s.
    """
    h_prime = np.asarray(h_prime)
    if np.max(np.abs(h_prime - h_prime.conj().T)) > 1e-10:
        raise ValueError("conjugation Hamiltonian must be Hermitian")
    dim = h_prime.shape[0]
    k2 = _k2_op(dim)
    evals, vecs = np.linalg.eigh(h_prime)
    m = vecs.conj().T @ k2 @ vecs
    phase = np.exp(1j * s * (evals[:, None] - evals[None, :]))
    return vecs @ (m * phase) @ vecs.conj().T


#: the memory integral keeps the last 8 kernel correlation times; the e^-8
#: tail beyond them is dropped
MEMORY_WINDOW_TAUS = 8.0


def memory_operator(t: float, model: Model) -> np.ndarray:
    """Memory integral M(t) = ∫ f(t-t') Aᴵ(t'-t) dt' of a gup description with
    an exponential kernel, in closed form.

    For diagonal H_RWA, with Δ_ab = E_a - E_b and z = 1 + iΔτ,
    M_ab = A_ab (1 - e^{-z s/τ}) / (2z) over the last
    s = min(t, MEMORY_WINDOW_TAUS τ) of the kernel.  Times are dimensionless.
    """
    if not model.tau:
        raise ConfigError(
            "memory integral needs an exponential kernel; delta kernels route to gup_markov_rhs"
        )
    z, z2 = model.memory_parts
    s = min(t, MEMORY_WINDOW_TAUS * model.tau)
    return model.op * (-np.expm1(-z * (s / model.tau)) / z2)


@lru_cache(maxsize=2)
def _memory_operator_at(t: float, model: Model) -> tuple[np.ndarray, np.ndarray]:
    """(Re M, Im M) of ``memory_operator``, read-only and kept for the last two
    (t, model) pairs: RK4's two midpoint stages share theirs."""
    m = memory_operator(t, model)
    return _real(m), _real(m.imag)


def gup_nonmarkov_rhs(x: np.ndarray, t: float, model: Model) -> np.ndarray:
    """Time-convolutionless right-hand side of the ``gup-nonmarkov``
    description, -i [H_RWA, rho] - (2/(omega tau_G)) [K², [M(t), rho]] + damping,
    on the real form X of rho.  M(t) is ``memory_operator``; the state under
    its integral is rho(t) itself, so no history of rho enters."""
    mem = _memory_operator_at(t, model) if model.c else None
    return _lindblad_rhs(x, model, mem, 2.0 * model.c)
