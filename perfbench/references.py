"""Independent reference solutions for the benchmark's output checks.

Nothing here imports ``decolab``.  The operators are built from the ladder
matrix elements <n-1|a|n> = sqrt(n) of a truncated Fock space, and each
reference solves the model by a different method from the program's:

* Markov master equations (deformation and metric models): the action of the
  exponential of the sparse Liouvillian (``expm_multiply``) in place of RK4.
* Exponential-kernel (second-order, TCL2) master equation: the exact memory
  integral M(t) in closed form, integrated with DOP853 at tight tolerances,
  in place of Gauss-Legendre quadrature over a window and RK4.
* Bounds: the closed-form inversion of (T1, T2, epsilon), written out here.
* Wigner functions of Fock states and of the 0-1 superposition in closed form.

Units follow the program's: time is omega*t, energies hbar*omega, quadratures
with vacuum variance 1/2.  K² is the square of the truncated K, the same
truncation convention as the model it is compared with.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp
from scipy.integrate import solve_ivp
from scipy.sparse.linalg import expm_multiply

# CODATA values, for the bounds' unit conversions and feasibility numbers
PLANCK_LENGTH = 1.616255e-35   # m
PLANCK_TIME = 5.391247e-44     # s
HBAR = 1.054571817e-34         # J s


def kinetic(dim: int) -> np.ndarray:
    """K = (2N + 1 - a†² - a²)/4 from its matrix elements, as a real array.

    <n|K|n> = (2n + 1)/4 and <n|K|n+2> = <n+2|K|n> = -sqrt((n+1)(n+2))/4.
    """
    n = np.arange(dim, dtype=float)
    k = np.diag((2.0 * n + 1.0) / 4.0)
    off = -np.sqrt((n[:-2] + 1.0) * (n[:-2] + 2.0)) / 4.0
    k[np.arange(dim - 2), np.arange(2, dim)] = off
    k[np.arange(2, dim), np.arange(dim - 2)] = off
    return k


def kinetic_squared(dim: int) -> np.ndarray:
    k = kinetic(dim)
    return k @ k


def levels(dim: int, beta_bar: float = 0.0, ap_hw: float = 0.0) -> np.ndarray:
    """Anharmonic RWA ladder E_n = (n + 1/2) + (3/8) ap_hw beta_bar (n² + n + 1/2)."""
    n = np.arange(dim, dtype=float)
    return (n + 0.5) + 0.375 * ap_hw * beta_bar * (n * n + n + 0.5)


def _superop(left: np.ndarray, right: np.ndarray) -> sp.csr_matrix:
    """Superoperator of rho -> left @ rho @ right on row-major vec(rho)."""
    return sp.kron(sp.csr_matrix(left), sp.csr_matrix(right.T), format="csr")


def liouvillian(model: str, dim: int, *, omega_tau_g: float = math.inf,
                omega_tau_d: float = math.inf, beta_bar: float = 0.0,
                ap_hw: float = 0.0) -> sp.csr_matrix:
    """Sparse Liouvillian of a Markov model acting on row-major vec(rho).

    ``gup-markov``: -i[H_RWA, rho] - (1/omega tau_G) [K², [K², rho]].
    ``breuer``:     -i[N, rho] - (1/(2 omega tau_D)) [K, [K, rho]].
    """
    eye = np.eye(dim)
    if model == "gup-markov":
        h = np.diag(levels(dim, beta_bar, ap_hw))
        op, rate = kinetic_squared(dim), 1.0 / omega_tau_g
    elif model == "breuer":
        h = np.diag(np.arange(dim, dtype=float))
        op, rate = kinetic(dim), 0.5 / omega_tau_d
    else:
        raise ValueError(f"no Markov reference for model {model!r}")
    op2 = op @ op
    lv = -1j * (_superop(h, eye) - _superop(eye, h))
    lv = lv - rate * (_superop(op2, eye) - 2.0 * _superop(op, op)
                      + _superop(eye, op2))
    return lv.tocsr()


def markov_states(lv: sp.csr_matrix, rho0: np.ndarray, times) -> np.ndarray:
    """exp(L t) rho0 at the given evenly spaced times (first one 0)."""
    dim = rho0.shape[0]
    times = np.asarray(times, dtype=float)
    vecs = expm_multiply(lv, rho0.astype(complex).ravel(), start=times[0],
                         stop=times[-1], num=len(times), endpoint=True)
    return vecs.reshape(len(times), dim, dim)


def memory_operator(t: float, k2: np.ndarray, d_e: np.ndarray, tau: float,
                    window: float = math.inf) -> np.ndarray:
    """Exact exponential-kernel memory integral in the interaction picture.

    M_ab(t) = K²_ab (1 - exp(-(1 + i Δ_ab τ) s/τ)) / (2 (1 + i Δ_ab τ)),
    with Δ_ab = E_a - E_b and s = min(t, window).  ``window`` cuts the kernel
    after that much elapsed time; the default keeps the whole history.
    """
    z = 1.0 + 1j * d_e * tau
    s = min(t, window)
    return k2 * (1.0 - np.exp(-z * s / tau)) / (2.0 * z)


def memory_states(rho0: np.ndarray, times, *, omega_tau_g: float,
                  omega_tau_kernel: float, beta_bar: float = 0.0,
                  ap_hw: float = 0.0, window: float = math.inf,
                  rtol: float = 1e-12, atol: float = 1e-14) -> np.ndarray:
    """Second-order exponential-kernel master equation, solved with DOP853:

    d rho/d(omega t) = -i [H_RWA, rho] - (2/omega tau_G) [K², [M(t), rho]].
    """
    dim = rho0.shape[0]
    e = levels(dim, beta_bar, ap_hw)
    d_e = e[:, None] - e[None, :]
    k2 = kinetic_squared(dim)
    rate = 2.0 / omega_tau_g

    def rhs(t, y):
        rho = y.reshape(dim, dim)
        m = memory_operator(t, k2, d_e, omega_tau_kernel, window)
        inner = m @ rho - rho @ m
        out = -1j * d_e * rho - rate * (k2 @ inner - inner @ k2)
        return out.ravel()

    times = np.asarray(times, dtype=float)
    sol = solve_ivp(rhs, (times[0], times[-1]), rho0.astype(complex).ravel(),
                    method="DOP853", t_eval=times, rtol=rtol, atol=atol)
    if not sol.success:
        raise RuntimeError(f"memory reference did not converge: {sol.message}")
    return sol.y.T.reshape(len(times), dim, dim)


def initial_density(state: str, dim: int) -> np.ndarray:
    """Density matrix of ``vacuum``, ``fock(n)`` or ``superposition01``."""
    psi = np.zeros(dim, dtype=complex)
    if state == "vacuum":
        psi[0] = 1.0
    elif state == "superposition01":
        psi[0] = psi[1] = 1.0 / math.sqrt(2.0)
    elif state.startswith("fock(") and state.endswith(")"):
        psi[int(state[5:-1])] = 1.0
    else:
        raise ValueError(f"unknown state {state!r}")
    return np.outer(psi, psi.conj())


def _laguerre(n: int, z: np.ndarray) -> np.ndarray:
    """L_n(z) by the three-term recurrence."""
    prev, cur = np.zeros_like(z), np.ones_like(z)
    for k in range(n):
        prev, cur = cur, ((2 * k + 1 - z) * cur - k * prev) / (k + 1)
    return cur


def wigner(state: str, x: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Closed-form Wigner function on the grid x (rows) by p (columns).

    Fock n: (-1)^n exp(-r²) L_n(2 r²) / pi with r² = x² + p².
    (|0> + |1>)/sqrt(2): (W_0 + W_1)/2 + sqrt(2) x exp(-r²) / pi.
    """
    xx, pp = np.meshgrid(x, p, indexing="ij")
    r2 = xx ** 2 + pp ** 2
    gauss = np.exp(-r2) / math.pi
    if state == "vacuum":
        return gauss
    if state == "superposition01":
        w0, w1 = gauss, -gauss * (1.0 - 2.0 * r2)
        return 0.5 * (w0 + w1) + math.sqrt(2.0) * xx * gauss
    if state.startswith("fock(") and state.endswith(")"):
        n = int(state[5:-1])
        return (-1) ** n * gauss * _laguerre(n, 2.0 * r2)
    raise ValueError(f"no closed-form Wigner function for {state!r}")


def decay_rates(coef_t1: float, coef_t2: float, t1: float, t2: float,
                st1: float, st2: float):
    """Invert 1/T1 = gamma + coef_t1/tau and 1/T2 = gamma/2 + coef_t2/tau.

    Returns (gamma, sigma_gamma, tau, sigma_tau), errors propagated linearly
    with absolute values summed (inputs not assumed independent).
    """
    u, v = 1.0 / t1, 1.0 / t2
    su, sv = st1 / t1 ** 2, st2 / t2 ** 2
    num = 2.0 * coef_t2 - coef_t1
    disc = 2.0 * v - u
    tau = num / disc
    sigma_tau = num / disc ** 2 * (su + 2.0 * sv)
    gamma = u - coef_t1 / tau
    # d gamma/du = 1 + coef_t1/num, d gamma/dv = -2 coef_t1/num
    sigma_gamma = (1.0 + coef_t1 / num) * su + (2.0 * coef_t1 / num) * sv
    return gamma, sigma_gamma, tau, sigma_tau


def bounds(t1: float, st1: float, t2: float, st2: float, omega: float,
           ap_hw: float, x0: float, epsilon: float, sigma_epsilon: float) -> dict:
    """(value, sigma) of every derived bound, SI units, keyed by JSON path."""
    out = {}
    for model, (c1, c2), tau_key in (("gup", (45 / 8, 30 / 8), "tau_g"),
                                     ("breuer", (3 / 8, 3 / 8), "tau_d")):
        gamma, sg, tau, st = decay_rates(c1, c2, t1, t2, st1, st2)
        out[f"{model}.gamma_inv"] = (1.0 / gamma, sg / gamma ** 2)
        out[f"{model}.{tau_key}"] = (tau, st)
    tau_g, st_g = out["gup.tau_g"]
    kappa = 1.0 / (8.0 * ap_hw ** 2 * omega ** 2 * tau_g)
    out["gup.kappa"] = (kappa, kappa * st_g / tau_g)
    tau_d, st_d = out["breuer.tau_d"]
    tau_c = 1.0 / (tau_d * omega ** 2)
    out["breuer.tau_c"] = (tau_c, tau_c * st_d / tau_d)
    out["deformation.beta_bar"] = (epsilon / (6.0 * ap_hw),
                                   sigma_epsilon / (6.0 * ap_hw))
    lk = x0 * math.sqrt(epsilon)
    out["deformation.l_k"] = (lk, 0.0 if epsilon == 0 else
                              0.5 * lk * sigma_epsilon / epsilon)
    out["feasibility.mass_frequency_product"] = (
        HBAR ** 2 / (30.0 * PLANCK_LENGTH ** 4 * PLANCK_TIME), 0.0)
    out["feasibility.omega_sq_over_gamma"] = (1.0 / PLANCK_TIME, 0.0)
    return out
