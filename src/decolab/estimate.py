"""Experimental pipeline: decay fitting, rate solving, and model bounds.

Times in datasets are seconds internally (CSV files use microseconds, the
natural experimental unit at GHz mechanics).  Uncertainties on derived
quantities use first-order propagation with absolute-value summation of the
partial-derivative terms — the conservative convention for bounds, where
input errors are not assumed independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
from scipy.optimize import OptimizeResult, leastsq

from .exceptions import ConfigError, FitFailureError, ModelInconsistencyError
from .generators import PLANCK, PhysicalConstants

__all__ = [
    "TimeSeriesDataset",
    "FitResult",
    "fit_exp_decay",
    "fit_ramsey",
    "RateSolution",
    "solve_rates_gup",
    "solve_rates_breuer",
    "kappa_from_tau_g",
    "tau_c_from_tau_d",
    "beta_from_epsilon",
    "lk_from_epsilon",
    "ellipticity_from_wigner",
    "synthesize_dataset",
    "planck_feasibility",
    "bounds_report",
    "LK_REFERENCE",
]


@dataclass(frozen=True)
class TimeSeriesDataset:
    """Measured observable vs. time; times in seconds."""

    t: np.ndarray
    y: np.ndarray
    sigma: Optional[np.ndarray] = None

    def __post_init__(self):
        t = np.asarray(self.t, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if t.shape != y.shape or t.ndim != 1:
            raise ConfigError("t and y must be 1-D arrays of equal length")
        if not (np.all(np.isfinite(t)) and np.all(t >= 0) and np.all(np.diff(t) > 0)):
            raise ConfigError("t must be finite, non-negative and strictly increasing")
        if not np.all(np.isfinite(y)):
            raise ConfigError("y must be finite")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "y", y)
        if self.sigma is not None:
            s = np.asarray(self.sigma, dtype=float)
            if s.shape != t.shape or not np.all(s > 0):  # NaN is not positive
                raise ConfigError("sigma must be positive and match t in length")
            object.__setattr__(self, "sigma", s)

    @classmethod
    def from_csv(cls, path) -> "TimeSeriesDataset":
        """Read `t_us,y[,sigma]` rows; t_us is time in microseconds."""
        with open(path) as fh:
            header = fh.readline().strip().split(",")
            if header[:2] != ["t_us", "y"]:
                raise ConfigError(f"unexpected CSV header {header!r}")
            rows = [line.strip().split(",") for line in fh if line.strip()]
        if not rows:
            raise ConfigError(f"{path}: no data rows after the header")
        for i, row in enumerate(rows, 1):
            if len(row) != len(header):
                raise ConfigError(f"{path}: data row {i} has {len(row)} values, "
                                  f"the header names {len(header)}")
        try:
            data = np.array(rows, dtype=float)
        except ValueError as exc:
            raise ConfigError(f"{path}: {exc}") from None
        sigma = data[:, 2] if len(header) > 2 else None
        return cls(t=data[:, 0] * 1e-6, y=data[:, 1], sigma=sigma)

    def to_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("t_us,y" + (",sigma" if self.sigma is not None else "") + "\n")
            for i in range(len(self.t)):
                row = [f"{self.t[i] * 1e6:.12g}", f"{self.y[i]:.12g}"]
                if self.sigma is not None:
                    row.append(f"{self.sigma[i]:.12g}")
                fh.write(",".join(row) + "\n")


@dataclass(frozen=True)
class FitResult:
    """Converged least-squares estimate with curvature-based 1-sigma errors."""

    params: dict
    sigmas: dict
    residual_norm: float
    converged: bool
    n_eval: int


def _safe_exp(arg):
    """exp with the argument clipped so optimizer probes of unphysical decay
    times cannot overflow."""
    return np.exp(np.clip(arg, -500.0, 500.0))


def _levenberg_marquardt(fun, jac, x0) -> OptimizeResult:
    """MINPACK ``lmder`` from x0 at xtol=1e-10, ftol=1e-12 and at most
    200 len(x0) evaluations, with the other settings scipy's ``method="lm"``
    front end passes it, but without that front end's wrapper layers.  Returns
    the x, cost, Jacobian at x and evaluation count that the fits read.

    Refuses a starting point whose residuals are not finite, as that front
    end does, but as a FitFailureError.
    """
    if not np.all(np.isfinite(fun(x0))):
        raise FitFailureError("residuals are not finite at the starting point")
    x, _, info, message, ier = leastsq(fun, x0, Dfun=jac, full_output=True,
                                       ftol=1e-12, xtol=1e-10, gtol=1e-8,
                                       maxfev=200 * len(x0), factor=100)
    f = info["fvec"]
    return OptimizeResult(x=x, cost=0.5 * np.dot(f, f), jac=jac(x),
                          nfev=info["nfev"], success=ier in (1, 2, 3, 4),
                          message=message)


def _covariance(res, n_points) -> np.ndarray:
    """Covariance of the estimate: (J^T J)^(-1) scaled by reduced chi^2, the
    "standard deviation given by the fitting function" convention.  Raises
    LinAlgError when J^T J is singular."""
    dof = max(n_points - len(res.x), 1)
    return np.linalg.inv(res.jac.T @ res.jac) * (2.0 * res.cost / dof)


def _finish_fit(res, names, n_points):
    if not res.success:
        raise FitFailureError("least-squares fit did not converge")
    try:
        cov = _covariance(res, n_points)
    except np.linalg.LinAlgError as exc:
        raise FitFailureError("singular curvature matrix at the optimum") from exc
    if not (math.isfinite(res.cost) and np.all(np.isfinite(cov))):
        raise FitFailureError("residuals or covariance are not finite at the optimum")
    sig = np.sqrt(np.maximum(np.diag(cov), 0.0))
    return FitResult(params=dict(zip(names, map(float, res.x))),
                     sigmas=dict(zip(names, map(float, sig))),
                     residual_norm=float(math.sqrt(2.0 * res.cost)),
                     converged=True, n_eval=int(res.nfev))


def fit_exp_decay(dataset: TimeSeriesDataset) -> FitResult:
    """Fit A exp(-t/T1) + C; returns params A, T1 (seconds), C.

    Initialization is deterministic: C from the tail mean, A from the first
    point, T1 from a log-linear regression of the positive part of y - C.
    """
    t, y = dataset.t, dataset.y
    if len(t) < 6:
        raise ConfigError("exponential fit needs at least 6 points")
    w = 1.0 / dataset.sigma if dataset.sigma is not None else np.ones_like(y)

    n_tail = max(len(y) // 10, 2)
    c0 = float(np.mean(y[-n_tail:]))
    a0 = float(y[0] - c0)
    if a0 == 0.0:
        a0 = float(np.ptp(y)) or 1.0
    resid = (y - c0) / a0
    mask = resid > 0.05
    if np.count_nonzero(mask) >= 2:
        slope = np.polyfit(t[mask], np.log(resid[mask]), 1)[0]
        t10 = -1.0 / slope if slope < 0 else (t[-1] - t[0])
    else:
        t10 = (t[-1] - t[0]) / 2.0
    x0 = np.array([a0, t10, c0])

    def fun(p):
        return w * (p[0] * _safe_exp(-t / p[1]) + p[2] - y)

    def jac(p):
        e = _safe_exp(-t / p[1])
        return np.column_stack([w * e, w * p[0] * e * t / p[1] ** 2, w])

    res = _levenberg_marquardt(fun, jac, x0)
    return _finish_fit(res, ["A", "T1", "C"], len(t))


def fit_ramsey(dataset: TimeSeriesDataset) -> FitResult:
    """Fit A exp(-t/T2) cos(2 pi f t + phi) + C; T2 in seconds, f in Hz.

    One Levenberg-Marquardt descent, from f at the spectral peak of the detrended
    data, T2 at half the time span, and A, phi and C from the weighted linear fit
    of [e cos(2 pi f t), e sin(2 pi f t), 1], e = exp(-t/T2), at that (T2, f).
    """
    t, y = dataset.t, dataset.y
    if len(t) < 12:
        raise ConfigError("Ramsey fit needs at least 12 points")
    w = 1.0 / dataset.sigma if dataset.sigma is not None else np.ones_like(y)

    dt = float(np.mean(np.diff(t)))
    spec = np.abs(np.fft.rfft(y - np.mean(y)))
    freqs = np.fft.rfftfreq(len(t), dt)
    k = int(np.argmax(spec[1:])) + 1
    if spec[k] <= 3.0 * np.median(spec[1:]):
        raise FitFailureError("no spectral peak above the noise floor")
    f0 = float(freqs[k])
    t20 = (t[-1] - t[0]) / 2.0
    e0 = _safe_exp(-t / t20)
    basis = np.column_stack([e0 * np.cos(2 * np.pi * f0 * t),
                             e0 * np.sin(2 * np.pi * f0 * t), np.ones_like(t)])
    (ca, sa, c0), *_ = np.linalg.lstsq(w[:, None] * basis, w * y, rcond=None)

    def fun(p):
        a, t2, f, phi, c = p
        return w * (a * _safe_exp(-t / t2) * np.cos(2 * np.pi * f * t + phi) + c - y)

    def jac(p):
        a, t2, f, phi, c = p
        e = _safe_exp(-t / t2)
        arg = 2 * np.pi * f * t + phi
        cosv, sinv = np.cos(arg), np.sin(arg)
        return np.column_stack([
            w * e * cosv,
            w * a * e * cosv * t / t2 ** 2,
            -w * a * e * sinv * 2 * np.pi * t,
            -w * a * e * sinv,
            w,
        ])

    res = _levenberg_marquardt(
        fun, jac, np.array([math.hypot(ca, sa), t20, f0, math.atan2(-sa, ca), c0]))
    out = _finish_fit(res, ["A", "T2", "f", "phi", "C"], len(t))
    # canonicalize sign/phase so A >= 0 and phi in [-pi, pi)
    p = dict(out.params)
    if p["A"] < 0:
        p["A"], p["phi"] = -p["A"], p["phi"] + np.pi
    p["phi"] = float((p["phi"] + np.pi) % (2 * np.pi) - np.pi)
    return replace(out, params=p)


@dataclass(frozen=True)
class RateSolution:
    """Damping rate and model decoherence time solved from (T1, T2)."""

    gamma: float        # 1/s
    gamma_sigma: float
    tau: float          # s; inf when 2/T2 equals 1/T1 exactly
    tau_sigma: float
    model: str          # "gup" or "breuer"

    @property
    def gamma_inv(self) -> float:
        return math.inf if self.gamma == 0 else 1.0 / self.gamma

    @property
    def gamma_inv_sigma(self) -> float:
        return math.inf if self.gamma == 0 else self.gamma_sigma / self.gamma ** 2


def _solve_rates(t1, t2, sigma_t1, sigma_t2, coef_t1, coef_coh, model):
    """Invert 1/T1 = gamma + coef_t1/tau, 1/T2 = gamma/2 + coef_coh/tau.

    The error budget is linear (absolute-sum) propagation through the exact
    closed form; with tau eliminated, gamma depends only on u = 1/T1 and
    v = 1/T2.
    """
    if not (0 < t1 < math.inf and 0 < t2 < math.inf):
        raise ConfigError("T1 and T2 must be positive and finite")
    if not (0 <= sigma_t1 < math.inf and 0 <= sigma_t2 < math.inf):
        raise ConfigError("the uncertainties of T1 and T2 must be finite and non-negative")
    u, v = 1.0 / t1, 1.0 / t2
    su, sv = sigma_t1 / t1 ** 2, sigma_t2 / t2 ** 2
    # tau = (2 coef_coh - coef_t1) / (2 v - u)
    num = 2.0 * coef_coh - coef_t1
    disc = 2.0 * v - u
    if disc < 0:
        raise ModelInconsistencyError(
            f"2/T2 < 1/T1 (T1={t1:.4g}, T2={t2:.4g}): {model} decoherence "
            "time would be negative")
    # gamma = u - coef_t1 * disc / num, linear in (u, v)
    cu = 1.0 + coef_t1 / num          # |d gamma / d u|
    cv = 2.0 * coef_t1 / num          # |d gamma / d v|
    gamma = cu * u - cv * v
    gamma_sigma = cu * su + cv * sv
    if gamma < 0:
        raise ModelInconsistencyError(
            f"solved damping rate is negative (gamma={gamma:.4g}/s)")
    if disc == 0.0:
        return RateSolution(gamma=u, gamma_sigma=su, tau=math.inf,
                            tau_sigma=math.inf, model=model)
    tau = num / disc
    tau_sigma = num * (su + 2.0 * sv) / disc ** 2
    return RateSolution(gamma=gamma, gamma_sigma=gamma_sigma, tau=tau,
                        tau_sigma=tau_sigma, model=model)


def solve_rates_gup(t1: float, t2: float, sigma_t1: float = 0.0,
                    sigma_t2: float = 0.0) -> RateSolution:
    """Rates from the deformation-noise model: 1/T1 = gamma + (45/8)/tau_G,
    1/T2 = gamma/2 + (30/8)/tau_G.  All times in seconds.
    """
    return _solve_rates(t1, t2, sigma_t1, sigma_t2, 45.0 / 8.0, 30.0 / 8.0,
                        "gup")


def solve_rates_breuer(t1: float, t2: float, sigma_t1: float = 0.0,
                       sigma_t2: float = 0.0) -> RateSolution:
    """Rates from the metric-fluctuation model: 1/T1 = gamma + (3/8)/tau_D,
    1/T2 = gamma/2 + (3/8)/tau_D.
    """
    return _solve_rates(t1, t2, sigma_t1, sigma_t2, 3.0 / 8.0, 3.0 / 8.0,
                        "breuer")


def kappa_from_tau_g(tau_g: float, ap_hw: float, omega: float,
                     sigma_tau_g: float = 0.0):
    """Fluctuation time kappa (s) from 1/tau_G = 8 (a_P hbar omega)^2 omega^2 kappa."""
    if not all(0 < v < math.inf for v in (tau_g, ap_hw, omega)):
        raise ConfigError("tau_g, ap_hw and omega must be positive and finite")
    kappa = 1.0 / (8.0 * ap_hw ** 2 * omega ** 2 * tau_g)
    return kappa, kappa * sigma_tau_g / tau_g


def tau_c_from_tau_d(tau_d: float, omega: float, sigma_tau_d: float = 0.0):
    """Metric-noise correlation time tau_c (s) from 1/tau_D = tau_c omega^2."""
    if not all(0 < v < math.inf for v in (tau_d, omega)):
        raise ConfigError("tau_d and omega must be positive and finite")
    tau_c = 1.0 / (tau_d * omega ** 2)
    return tau_c, tau_c * sigma_tau_d / tau_d


def beta_from_epsilon(epsilon: float, ap_hw: float, sigma_epsilon: float = 0.0):
    """Mean deformation beta_bar from the ellipticity: epsilon = 6 beta_bar ap_hw."""
    if not (0 <= epsilon < math.inf and 0 <= sigma_epsilon < math.inf and 0 < ap_hw < math.inf):
        raise ConfigError("epsilon and its sigma must be finite and non-negative, ap_hw positive")
    return epsilon / (6.0 * ap_hw), sigma_epsilon / (6.0 * ap_hw)


#: independently reported nonlocality-length bound (value, sigma) in m for the
#: same device and epsilon = 0.020; kept for comparison with the naive mapping,
#: which lands a factor ~2 lower in epsilon (mapping coefficient unresolved
#: upstream).
LK_REFERENCE = (5.9e-20, 0.8e-20)


def lk_from_epsilon(epsilon: float, x0: float, sigma_epsilon: float = 0.0):
    """Nonlocality length scale (m) via epsilon = l_k^2 / x0^2."""
    if not (0 <= epsilon < math.inf and 0 <= sigma_epsilon < math.inf and 0 < x0 < math.inf):
        raise ConfigError("epsilon and its sigma must be finite and non-negative, x0 positive")
    value = x0 * math.sqrt(epsilon)
    return value, 0.0 if epsilon == 0 else 0.5 * value * sigma_epsilon / epsilon


def _ellipticity(a: float, b: float, c: float) -> float:
    """epsilon = 2(r - 1)/(r + 1) for the eigenvalue ratio r = v_max/v_min of
    the covariance [[a, c], [c, b]], or of its inverse, whose ratio r is the
    same: exactly 2 sqrt((a - b)^2 + 4c^2)/(a + b)."""
    return 2.0 * math.hypot(a - b, 2.0 * c) / (a + b)


def ellipticity_from_wigner(grid) -> tuple:
    """Ellipticity epsilon of a Wigner grid from its moments.

    epsilon is the paper's variance ratio: the max/min quadrature variance is
    (2 + epsilon)/(2 - epsilon) (``analytic.ground_state_variance``), taken
    here from the eigenvalues of the grid's x-p covariance through
    ``_ellipticity``.  On a Gaussian grid this is the Gaussian's own
    ellipticity.  sigma is 0.0: the grid is noise-free, and its truncation is
    reported as ``WignerGrid.captured_mass``.  Returns (epsilon, sigma).
    """
    x, p, w = np.asarray(grid.x), np.asarray(grid.p), np.asarray(grid.values)
    xx, pp = np.meshgrid(x, p, indexing="ij")
    dx = x[1] - x[0]
    dp = p[1] - p[0]
    mass = float(np.sum(w)) * dx * dp
    if not 0 < mass < math.inf:
        raise FitFailureError("grid has no finite positive mass to fit")
    mx = float(np.sum(w * xx)) * dx * dp / mass
    mp_ = float(np.sum(w * pp)) * dx * dp / mass
    vxx = float(np.sum(w * (xx - mx) ** 2)) * dx * dp / mass
    vpp = float(np.sum(w * (pp - mp_) ** 2)) * dx * dp / mass
    vxp = float(np.sum(w * (xx - mx) * (pp - mp_))) * dx * dp / mass
    det = vxx * vpp - vxp ** 2  # non-finite whenever a moment is
    if not (0 < det < math.inf and vxx > 0 and vpp > 0):
        raise FitFailureError("moment covariance is not finite and positive definite")
    return _ellipticity(vxx, vpp, vxp), 0.0


def synthesize_dataset(model: str, truth: dict, n_points: int,
                       noise_sigma: float, seed: int,
                       t_max: float) -> TimeSeriesDataset:
    """Deterministic synthetic dataset on a uniform grid over (0, t_max] s.

    ``model`` is "exp" (params A, T1, C) or "ramsey" (A, T2, f, phi, C);
    additive Gaussian noise of scale ``noise_sigma``.
    """
    if n_points < 4:
        raise ConfigError("need at least 4 points")
    t = np.linspace(t_max / n_points, t_max, n_points)
    if model == "exp":
        y = truth["A"] * np.exp(-t / truth["T1"]) + truth.get("C", 0.0)
    elif model == "ramsey":
        y = (truth["A"] * np.exp(-t / truth["T2"])
             * np.cos(2 * np.pi * truth["f"] * t + truth.get("phi", 0.0))
             + truth.get("C", 0.0))
    else:
        raise ConfigError(f"unknown synthetic model {model!r}")
    if noise_sigma > 0:
        rng = np.random.default_rng(seed)
        y = y + rng.normal(0.0, noise_sigma, size=n_points)
        sigma = np.full(n_points, noise_sigma)
    else:
        sigma = None
    return TimeSeriesDataset(t=t, y=y, sigma=sigma)


def planck_feasibility(constants: PhysicalConstants = PLANCK) -> dict:
    """Device targets for resolving Planck-time spacetime fluctuations.

    ``mass_frequency_product``: the m^2 omega^4 tau needed so that kappa = t_P
    produces an observable coherence decay, expressed through the measured
    coherence decay time (8/30) tau_G: hbar^2 / (30 l_P^4 t_P) ~ 1e113
    kg^2/s^3.  ``omega_sq_over_gamma``: the omega^2/gamma needed for the
    metric-fluctuation model to resolve tau_c = t_P before damping wins: 1/t_P
    ~ 1e43 1/s.
    """
    lp4 = constants.planck_length ** 4
    return {
        "mass_frequency_product": constants.hbar ** 2 / (30.0 * lp4 * constants.planck_time),
        "omega_sq_over_gamma": 1.0 / constants.planck_time,
    }


def _quantity(value, sigma, unit) -> Optional[dict]:
    """{"value", "sigma", "unit"}, or None for a value that is missing or
    infinite, which constrains nothing."""
    if value is None or (isinstance(value, float) and math.isinf(value)):
        return None
    return {"value": value, "sigma": sigma, "unit": unit}


def bounds_report(t1: float, sigma_t1: float, t2: float, sigma_t2: float,
                  omega: float, ap_hw: float, x0: float,
                  epsilon: Optional[float] = None,
                  sigma_epsilon: float = 0.0) -> dict:
    """Full chain (T1, T2[, epsilon]) -> model bounds, with units,
    uncertainties, an echo of the inputs and the Planck feasibility targets;
    all inputs in SI.  Returns the report as a JSON-ready dict.

    Each value is stored as {"value", "sigma", "unit"}; entries are omitted
    (null) when the inputs carry no constraint (e.g. tau infinite at
    T2 = 2 T1) or when epsilon is not supplied.  Decoherence-parameter entries
    are conservative upper bounds (all measured decay is attributed to the
    model under test), never detections.
    """
    if not all(0 < v < math.inf for v in (omega, ap_hw, x0)):
        raise ConfigError("omega, ap_hw and x0 must be positive and finite")
    inputs = {
        "T1": _quantity(t1, sigma_t1, "s"),
        "T2": _quantity(t2, sigma_t2, "s"),
        "omega": _quantity(omega, 0.0, "rad/s"),
        "ap_hw": _quantity(ap_hw, 0.0, "dimensionless"),
        "x0": _quantity(x0, 0.0, "m"),
        "epsilon": _quantity(epsilon, sigma_epsilon, "dimensionless"),
    }

    gup_sol = solve_rates_gup(t1, t2, sigma_t1, sigma_t2)
    gup = {
        "gamma_inv": _quantity(gup_sol.gamma_inv, gup_sol.gamma_inv_sigma, "s"),
        "tau_g": _quantity(gup_sol.tau, gup_sol.tau_sigma, "s"),
    }
    if math.isfinite(gup_sol.tau):
        kappa, skappa = kappa_from_tau_g(gup_sol.tau, ap_hw, omega,
                                         gup_sol.tau_sigma)
        gup["kappa"] = _quantity(kappa, skappa, "s")
    else:
        gup["kappa"] = None

    br_sol = solve_rates_breuer(t1, t2, sigma_t1, sigma_t2)
    breuer = {
        "gamma_inv": _quantity(br_sol.gamma_inv, br_sol.gamma_inv_sigma, "s"),
        "tau_d": _quantity(br_sol.tau, br_sol.tau_sigma, "s"),
    }
    if math.isfinite(br_sol.tau):
        tau_c, stau_c = tau_c_from_tau_d(br_sol.tau, omega, br_sol.tau_sigma)
        breuer["tau_c"] = _quantity(tau_c, stau_c, "s")
    else:
        breuer["tau_c"] = None

    deformation = None
    if epsilon is not None:
        beta, sbeta = beta_from_epsilon(epsilon, ap_hw, sigma_epsilon)
        lk, slk = lk_from_epsilon(epsilon, x0, sigma_epsilon)
        deformation = {
            "beta_bar": _quantity(beta, sbeta, "dimensionless"),
            "l_k": _quantity(lk, slk, "m"),
            "l_k_reference": _quantity(*LK_REFERENCE, "m"),
        }

    units = {"mass_frequency_product": "kg^2/s^3", "omega_sq_over_gamma": "1/s"}
    feasibility = {k: _quantity(v, 0.0, units[k]) for k, v in planck_feasibility().items()}
    return {"inputs": inputs, "gup": gup, "breuer": breuer,
            "deformation": deformation, "feasibility": feasibility}
