"""Right-hand-side builders for the oscillator master equations.

All generators work in dimensionless units (hbar = 1, time measured in
omega*t, energies in hbar*omega).  Physical inputs live in ModelParams and are
folded into dimensionless coefficients here:

* deformed-commutator (double K² commutator) dissipator, Markovian and
  exponential-memory-kernel forms,
* metric-fluctuation (double K commutator) dissipator,
* amplitude damping at rate gamma, which each model generator adds last,
  so that it is the model's whole right-hand side,
* anharmonic RWA Hamiltonian and its non-RWA variant.

Every dissipator returns a traceless Hermitian derivative for Hermitian input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from . import fock
from .exceptions import KernelRoutingError

__all__ = [
    "PhysicalConstants",
    "PLANCK",
    "KernelSpec",
    "ModelParams",
    "h_rwa",
    "h_full",
    "gup_markov_rhs",
    "gup_markov_form",
    "gup_nonmarkov_rhs",
    "breuer_rhs",
    "breuer_form",
    "damping_rhs",
    "heisenberg_k2",
    "energy_level",
]


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

    def f_dimless(self, u: np.ndarray, omega: float) -> np.ndarray:
        """Kernel density in dimensionless time (u in omega*t units)."""
        if self.kind == "delta":
            raise KernelRoutingError("delta kernel has no density; use the Markovian form")
        tau = self.tau * omega
        return np.exp(-np.abs(u) / tau) / (2.0 * tau)


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

    @property
    def kappa_dimless(self) -> float:
        """kappa * omega; variance of the white deformation noise per omega*t."""
        return self.kappa * self.omega

    @property
    def gup_rate_dimless(self) -> float:
        """Markovian double-K² coefficient 8 (a_P hw)² kappa omega = 1/(omega tau_G)."""
        if not self.kappa:  # no noise; ap_hw² may overflow and must not be formed
            return 0.0
        return 8.0 * self.ap_hw ** 2 * self.kappa * self.omega

    @property
    def omega_tau_g(self) -> float:
        r = self.gup_rate_dimless
        return math.inf if r == 0 else 1.0 / r

    @property
    def breuer_rate_dimless(self) -> float:
        """Double-K coefficient tau_c * omega / 2 = 1/(2 omega tau_D)."""
        return 0.5 * self.tau_c * self.omega

    @property
    def omega_tau_d(self) -> float:
        return math.inf if self.tau_c == 0 else 1.0 / (self.tau_c * self.omega)

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

    def with_kernel(self, kernel: KernelSpec) -> "ModelParams":
        return replace(self, kernel=kernel)


# -- cached operator builders -----------------------------------------------

def _real(op: np.ndarray) -> np.ndarray:
    """The real part of an operator whose entries are real, read-only: real
    products with it take half the flops of complex ones."""
    out = np.ascontiguousarray(op.real)
    out.setflags(write=False)
    return out


@lru_cache(maxsize=32)
def _k_op(dim: int) -> np.ndarray:
    """K, real."""
    return _real(fock.kinetic(dim))


@lru_cache(maxsize=32)
def _k2_op(dim: int) -> np.ndarray:
    """K², complex: the trajectories diagonalise it and the memory operator
    and h_full scale it, so their results keep their bytes."""
    k = fock.kinetic(dim)
    k2 = k @ k
    k2.setflags(write=False)
    return k2


@lru_cache(maxsize=32)
def _k2_real(dim: int) -> np.ndarray:
    return _real(_k2_op(dim))


@lru_cache(maxsize=32)
def _ladder(dim: int) -> np.ndarray:
    return fock.ladder(dim)


def energy_level(n, beta_bar: float = 0.0, ap_hw: float = 0.0):
    """Anharmonic level E_n = (n + 1/2) + (3/8) ap_hw beta_bar (n² + n + 1/2)."""
    n = np.asarray(n, dtype=float)
    e = (n + 0.5) + 0.375 * ap_hw * beta_bar * (n * n + n + 0.5)
    return e if e.ndim else float(e)


@lru_cache(maxsize=32)
def _rwa_phase_rates(dim: int, beta_bar: float, ap_hw: float) -> np.ndarray:
    """Elementwise factor -i (E_a - E_b), so that -i [H_RWA, rho] = factor * rho."""
    levels = energy_level(np.arange(dim), beta_bar, ap_hw)
    rates = -1j * (levels[:, None] - levels[None, :])
    rates.setflags(write=False)
    return rates


def h_rwa(dim: int, beta_bar: float, ap_hw: float) -> np.ndarray:
    """Anharmonic oscillator Hamiltonian after the rotating wave approximation."""
    return np.diag(energy_level(np.arange(dim), beta_bar, ap_hw)).astype(complex)


def h_full(dim: int, beta_bar: float, ap_hw: float) -> np.ndarray:
    """Deformed Hamiltonian without the RWA: N + 1/2 + 4 ap_hw beta_bar K²."""
    return (np.diag(np.arange(dim) + 0.5).astype(complex)
            + 4.0 * ap_hw * beta_bar * _k2_op(dim))


def _commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a @ b - b @ a


def _double_commutator(a: np.ndarray, rho: np.ndarray, c: float) -> np.ndarray:
    """c [A, [A, rho]] for real symmetric A and Hermitian rho, in two products.

    With X = A rho, [A, rho] = X - X† = C; with Y = A C, [A, C] = Y + Y†.
    Each product is one real product of A with the interleaved (re, im)
    columns of the complex matrix's float view.
    """
    x = (a @ np.ascontiguousarray(rho, dtype=complex).view(float)).view(complex)
    x -= x.conj().T
    y = (a @ x.view(float)).view(complex)
    y += y.conj().T
    y *= c
    return y


def damping_rhs(rho: np.ndarray, gamma_dimless: float) -> np.ndarray:
    """Amplitude damping gamma (a rho a† - {N, rho}/2) in dimensionless time."""
    dim = rho.shape[0]
    a = _ladder(dim)
    n = np.arange(dim, dtype=float)
    anti = 0.5 * (n[:, None] + n[None, :]) * rho
    return gamma_dimless * (a @ rho @ a.conj().T - anti)


def _with_damping(out: np.ndarray, rho: np.ndarray, params: ModelParams) -> np.ndarray:
    """Add amplitude damping last, so each generator rounds as its terms' sum."""
    if params.gamma:
        out += damping_rhs(rho, params.gamma_dimless)
    return out


def gup_markov_form(params: ModelParams, dim: int) -> tuple[np.ndarray, np.ndarray, float]:
    """(R, A, c) of the Markovian deformed-commutator model: the phase rates
    R_ab = -i (E_a - E_b) of the RWA levels, A = K² (real, read-only) and
    c = 1/(omega tau_G).

    ``gup_markov_rhs`` is R * rho - c [A, [A, rho]] plus damping.
    """
    return (_rwa_phase_rates(dim, params.beta_bar, params.ap_hw), _k2_real(dim),
            params.gup_rate_dimless)


def breuer_form(params: ModelParams, dim: int) -> tuple[np.ndarray, np.ndarray, float]:
    """(R, A, c) of the metric-fluctuation model: the phase rates of the
    harmonic levels n, A = K (real, read-only) and
    c = tau_c omega / 2 = 1/(2 omega tau_D).

    ``breuer_rhs`` is R * rho - c [A, [A, rho]] plus damping.
    """
    return _rwa_phase_rates(dim, 0.0, 0.0), _k_op(dim), params.breuer_rate_dimless


def _lindblad_rhs(rho: np.ndarray, form: tuple, params: ModelParams) -> np.ndarray:
    """R * rho - c [A, [A, rho]] plus damping, for a model's form (R, A, c)."""
    rates, op, c = form
    out = rates * rho
    if c:
        out -= _double_commutator(op, rho, c)
    return _with_damping(out, rho, params)


def gup_markov_rhs(rho: np.ndarray, params: ModelParams) -> np.ndarray:
    """Markovian deformed-commutator master equation right-hand side.

    d rho / d(omega t) = -i [H_RWA, rho] - (1/(omega tau_G)) [K², [K², rho]]
                         + damping at params.gamma.
    H_RWA is diagonal, so its commutator is the elementwise product
    -i (E_a - E_b) rho_ab.  With kappa = 0 this is the damping-only model.
    rho must be Hermitian.
    """
    return _lindblad_rhs(rho, gup_markov_form(params, rho.shape[0]), params)


def breuer_rhs(rho: np.ndarray, params: ModelParams) -> np.ndarray:
    """Metric-fluctuation master equation right-hand side.

    d rho / d(omega t) = -i [N, rho] - (tau_c omega / 2) [K, [K, rho]]
                         + damping at params.gamma.
    rho must be Hermitian.
    """
    return _lindblad_rhs(rho, breuer_form(params, rho.shape[0]), params)


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


def memory_operator(t: float, params: ModelParams, dim: int) -> np.ndarray:
    """Memory integral M(t) = ∫ f(t-t') K²ᴵ(t'-t) dt' in closed form.

    For the exponential kernel and diagonal H_RWA, with Δ_ab = E_a - E_b and
    z = 1 + iΔτ, M_ab = K²_ab (1 - e^{-z s/τ}) / (2z) over the last
    s = min(t, MEMORY_WINDOW_TAUS τ) of the kernel.  Times are dimensionless.
    """
    if params.kernel.kind != "exponential":
        raise KernelRoutingError(
            "memory integral needs an exponential kernel; delta kernels route to gup_markov_rhs"
        )
    tau = params.kernel.tau * params.omega
    s = min(t, MEMORY_WINDOW_TAUS * tau)
    z = 1.0 - tau * _rwa_phase_rates(dim, params.beta_bar, params.ap_hw)
    return _k2_op(dim) * (-np.expm1(-z * (s / tau)) / (2.0 * z))


@lru_cache(maxsize=2)
def _memory_operator_at(t: float, params: ModelParams, dim: int) -> np.ndarray:
    """``memory_operator``, read-only and kept for the last two times: RK4's
    two midpoint stages share theirs."""
    m = memory_operator(t, params, dim)
    m.setflags(write=False)
    return m


def gup_nonmarkov_rhs(rho: np.ndarray, t: float, params: ModelParams) -> np.ndarray:
    """Memory-kernel deformed-commutator right-hand side (time-convolutionless).

    d rho / d(omega t) = -i [H_RWA, rho]
                         - 2/(omega tau_G) [K², [M(t), rho]]
                         + damping at params.gamma,
    with M(t) the kernel-weighted interaction-picture K² integral.  The state
    under the integral is rho(t) itself, so no history of rho enters.
    """
    dim = rho.shape[0]
    out = _rwa_phase_rates(dim, params.beta_bar, params.ap_hw) * rho
    c = 2.0 * params.gup_rate_dimless
    if c:
        m = _memory_operator_at(t, params, dim)
        k2 = _k2_op(dim)
        out -= c * _commutator(k2, _commutator(m, rho))
    return _with_damping(out, rho, params)
