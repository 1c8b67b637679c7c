"""Command-line entry point for reproducible runs.

Subcommands: simulate, ensemble, fit, bounds, wigner, analytic.  Simulation
runs are configured by a flat key=value file (unknown keys are errors) so a
run is fully described by one artifact; every JSON summary embeds the
resolved configuration with defaults materialized.  ``simulate`` and
``wigner`` evolve by ``integrate.solve``: it picks the path, checks the step.

Exit codes: 0 success; 2 configuration error (``ConfigError``, or an
``OSError`` from a path that cannot be read or written); 3 numeric failure
(``PositivityError``, ``FitFailureError``, ``numpy.linalg.LinAlgError``);
4 model inconsistency (``ModelInconsistencyError``).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import re
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from . import analytic, fock, generators, integrate, trajectories
from . import estimate as est
from .exceptions import (
    ConfigError,
    FitFailureError,
    ModelInconsistencyError,
    PositivityError,
)
from .generators import MODELS, KernelSpec, ModelParams

__all__ = ["RunConfig", "main"]

#: named device profile: GHz bulk-acoustic resonator in the quantum regime
PROFILES = {
    "hbar-16ug": {
        "f_hz": 5.96e9,
        "m_eff_kg": 1.62e-8,
        "x0_m": 2.9e-19,
        "ap_hw": 1.5e-33,
    },
}

@dataclass
class RunConfig:
    """Flat run configuration; dimensionless unless a unit is in the name."""

    model: str = "gup-markov"
    dim: int = 20
    initial_state: str = "vacuum"      # vacuum | fock(n) | superposition01
    t_end: float = 10.0                # omega * t
    dt: float = integrate.default_dt
    sample_every: int = 100
    seed: int = 0
    n_traj: int = 100
    noise_kind: str = "white"          # white | ornstein-uhlenbeck
    chunk_size: int = 256
    # model scales (dimensionless); inf disables the corresponding dissipator
    omega_tau_g: float = math.inf
    omega_tau_d: float = math.inf
    gamma_dimless: float = 0.0
    beta_bar: float = 0.0
    ap_hw: float = 1.5e-33
    kernel: str = "delta"              # delta | exponential
    omega_tau_kernel: float = 0.0      # kernel correlation time, omega * tau
    f_hz: float = 0.0                  # physical frequency for the seconds axis
    profile: str = ""
    # outputs
    observables: str = "rho_00,abs_rho_01,rho_11"
    csv_out: str = ""
    json_out: str = ""
    # wigner grid
    grid_halfwidth: float = 4.0
    grid_points: int = 81

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        fields = {f.name: f for f in dataclasses.fields(cls)}
        values = {}
        with open(path) as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
                key, _, val = line.partition("=")
                key, val = key.strip(), val.strip()
                if key not in fields:
                    raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
                typ = fields[key].type
                try:
                    if typ == "int":
                        values[key] = int(val)
                    elif typ == "float":
                        values[key] = float(val)
                    else:
                        values[key] = val
                except ValueError as exc:
                    raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}")
        cfg = cls(**values)
        cfg.validate()
        return cfg

    def validate(self) -> None:
        if self.profile:
            if self.profile not in PROFILES:
                raise ConfigError(f"unknown profile {self.profile!r}")
            prof = PROFILES[self.profile]
            self.f_hz = self.f_hz or prof["f_hz"]
            self.ap_hw = prof["ap_hw"]
        if self.model not in MODELS:
            raise ConfigError(f"unknown model {self.model!r}; choose from {MODELS}")
        if self.dim < 3:
            raise ConfigError("dim must be at least 3")
        if not (0 < self.dt < math.inf and 0 <= self.t_end < math.inf):
            raise ConfigError("dt must be positive and t_end non-negative, both finite")
        if not (self.omega_tau_g > 0 and self.omega_tau_d > 0):
            raise ConfigError("omega_tau_g and omega_tau_d must be positive (inf disables)")
        for name in ("gamma_dimless", "ap_hw", "omega_tau_kernel", "f_hz"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ConfigError(f"{name} must be finite and non-negative")
        if not math.isfinite(self.beta_bar):
            raise ConfigError("beta_bar must be finite")
        if not (0 < self.grid_halfwidth < math.inf and self.grid_points >= 3):
            raise ConfigError("grid_halfwidth must be positive and finite, grid_points at least 3")
        if self.sample_every < 1 or self.chunk_size < 1:
            raise ConfigError("sample_every and chunk_size must be at least 1")
        if self.n_traj < 100:
            raise ConfigError("n_traj must be at least 100")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        if self.noise_kind not in ("white", "ornstein-uhlenbeck"):
            raise ConfigError(f"unknown noise_kind {self.noise_kind!r}")
        if self.kernel not in ("delta", "exponential"):
            raise ConfigError(f"unknown kernel {self.kernel!r}")
        if self.kernel == "exponential" and self.omega_tau_kernel <= 0:
            raise ConfigError("exponential kernel needs omega_tau_kernel > 0")
        if self.model == "gup-nonmarkov" and self.kernel != "exponential":
            raise ConfigError("gup-nonmarkov requires kernel=exponential")
        for name in self.observable_names():
            try:
                _, i, j = integrate._parse_observable(name)
            except ValueError as exc:
                raise ConfigError(f"observables: {exc}") from exc
            if max(i, j) >= self.dim:
                raise ConfigError(f"observables: {name!r} is outside dim={self.dim}")
        self.parse_state(self.dim)  # validates the state string
        self.model_params()  # validates the model scales together

    def observable_names(self) -> list[str]:
        return [s.strip() for s in self.observables.split(",") if s.strip()]

    def parse_state(self, dim: int) -> np.ndarray:
        s = self.initial_state.strip()
        if s == "vacuum":
            return fock.fock_state(0, dim)
        if s == "superposition01":
            return fock.superposition01(dim)
        m = re.fullmatch(r"fock\((\d+)\)", s)
        if m:
            n = int(m.group(1))
            if n >= dim:
                raise ConfigError(f"fock({n}) does not fit in dim={dim}")
            return fock.fock_state(n, dim)
        raise ConfigError(f"unknown initial_state {self.initial_state!r}")

    @property
    def omega(self) -> float:
        return 2.0 * math.pi * self.f_hz if self.f_hz > 0 else 1.0

    def model_params(self) -> ModelParams:
        try:
            kernel = (KernelSpec(kind="delta", tau=0.0) if self.kernel == "delta"
                      else KernelSpec(kind="exponential",
                                      tau=self.omega_tau_kernel / self.omega))
            return ModelParams.from_dimensionless(
                omega_tau_g=self.omega_tau_g, omega_tau_d=self.omega_tau_d,
                gamma_dimless=self.gamma_dimless, beta_bar=self.beta_bar,
                ap_hw=self.ap_hw, omega=self.omega, kernel=kernel)
        except ValueError as exc:
            raise ConfigError(f"inconsistent model parameters: {exc}") from exc

    def resolved(self) -> dict:
        return dataclasses.asdict(self)


def _json_ready(obj):
    if isinstance(obj, dict):
        return {k: _json_ready(v) for k, v in obj.items()}
    if isinstance(obj, float):
        return None if math.isinf(obj) or math.isnan(obj) else obj
    return obj


def _write_json(path, payload) -> None:
    text = json.dumps(_json_ready(payload), indent=2, sort_keys=True)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _closed_forms(cfg: RunConfig, times: np.ndarray):
    """(p00, |rho01|, p11) of the model's perturbative closed forms, with the
    validity-window warnings silenced."""
    gamma = cfg.gamma_dimless
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        if cfg.model in ("gup-markov", "gup-nonmarkov"):
            p00, p11 = analytic.gup_populations(times, gamma, cfg.omega_tau_g)
            coh = np.abs(analytic.gup_coherence01(times, gamma, cfg.omega_tau_g))
        elif cfg.model == "breuer":
            c, p00, p11 = analytic.breuer_observables(times, gamma, cfg.omega_tau_d)
            coh = np.abs(c)
        else:
            p00 = np.ones_like(times)
            p11 = np.exp(-gamma * times)
            coh = 0.5 * np.exp(-0.5 * gamma * times)
    return p00, coh, p11


def _analytic_curves(cfg: RunConfig, times: np.ndarray) -> dict:
    """Perturbative reference curve for the canonical (state, observable)
    pairs; None when no closed form applies to this configuration."""
    p00, coh, p11 = _closed_forms(cfg, times)
    curves = {}
    state = cfg.initial_state.strip()
    if state == "vacuum":
        curves["rho_00"] = p00
    elif state == "fock(1)":
        curves["rho_11"] = p11
    elif state == "superposition01":
        curves["abs_rho_01"] = coh
    return curves


def cmd_simulate(cfg: RunConfig) -> int:
    m = generators.model(cfg.model, cfg.model_params(), cfg.dim)
    result = integrate.solve(fock.density(cfg.parse_state(cfg.dim)), m, cfg.t_end,
                             cfg.dt, sample_every=cfg.sample_every)
    observables = cfg.observable_names()
    if cfg.csv_out:
        result.to_csv(cfg.csv_out, observables)
    deviations = {}
    for name, curve in _analytic_curves(cfg, result.times_omega).items():
        if name in observables:
            deviations[name] = float(np.max(np.abs(result.expect(name) - curve)))
    _write_json(cfg.json_out, {
        "command": "simulate",
        "config": cfg.resolved(),
        "max_abs_deviation_from_analytic": deviations,
        "diagnostics": {
            "max_trace_drift": float(np.max(result.trace_drift)),
            # max |rho - rho†| over the written states, one at a time so that
            # no copy of the whole stack is made: 0 by construction
            "max_herm_drift": max(float(np.max(np.abs(s - s.conj().T)))
                                  for s in result.states),
            "min_eigenvalue": float(np.min(result.min_eigenvalue)),
            "propagator": result.propagator,
            # the largest weight in the top four Fock levels over all samples
            "edge_population": float(np.max(np.real(np.diagonal(
                result.states, axis1=1, axis2=2)[:, -4:]).sum(axis=1))),
            # RK4's step; the exact blocks take none
            **({} if result.step is None else {"step": result.step}),
        },
    })
    return 0


def cmd_ensemble(cfg: RunConfig) -> int:
    m = generators.model(cfg.model, cfg.model_params(), cfg.dim)
    if not m.c:
        raise ConfigError(f"model {cfg.model!r} has no fluctuation noise to unravel "
                          f"at these scales")
    if cfg.noise_kind != m.noise:
        raise ConfigError(f"noise_kind {cfg.noise_kind!r} does not match model "
                          f"{cfg.model!r} with kernel {cfg.kernel!r}, whose noise "
                          f"is {m.noise!r}")
    n_steps = integrate._step_count(cfg.t_end, cfg.dt)
    result = trajectories.ensemble_average(
        cfg.parse_state(cfg.dim), m, cfg.n_traj, cfg.seed, dt=cfg.dt,
        n_steps=n_steps, sample_every=cfg.sample_every, chunk_size=cfg.chunk_size)
    observables = cfg.observable_names()
    if cfg.csv_out:
        result.to_csv(cfg.csv_out, observables)
    _write_json(cfg.json_out, {
        "command": "ensemble",
        "config": cfg.resolved(),
        "n_traj": result.n_traj,
        "max_stderr": float(np.max(result.stderr)),
        # each observable's largest Monte-Carlo standard error
        "stderr": {name: float(np.max(result.observable_stderr(name)))
                   for name in observables},
    })
    return 0


def cmd_analytic(cfg: RunConfig) -> int:
    # simulate's sample times, the end sample included
    steps = integrate._sample_grid(integrate._step_count(cfg.t_end, cfg.dt),
                                   cfg.sample_every)
    times = np.array(steps) * cfg.dt
    p00, coh, p11 = _closed_forms(cfg, times)
    if cfg.csv_out:
        with open(cfg.csv_out, "w") as fh:
            fh.write("t_omega,p00,abs_coh01,p11\n")
            for i, t in enumerate(times):
                fh.write(f"{t:.12g},{p00[i]:.12g},{coh[i]:.12g},{p11[i]:.12g}\n")
    _write_json(cfg.json_out, {"command": "analytic", "config": cfg.resolved()})
    return 0


def cmd_wigner(cfg: RunConfig) -> int:
    rho = fock.density(cfg.parse_state(cfg.dim))
    step = None
    if cfg.t_end > 0:
        m = generators.model(cfg.model, cfg.model_params(), cfg.dim)
        result = integrate.solve(rho, m, cfg.t_end, cfg.dt, sample_every=cfg.sample_every)
        rho, step = result.states[-1], result.step
    axis = np.linspace(-cfg.grid_halfwidth, cfg.grid_halfwidth, cfg.grid_points)
    grid = fock.wigner(rho, axis, axis)
    if cfg.csv_out:
        grid.to_csv(cfg.csv_out)
    try:
        eps, eps_sigma = est.ellipticity_from_wigner(grid)
    except FitFailureError:
        eps, eps_sigma = None, None
    _write_json(cfg.json_out, {
        "command": "wigner",
        "config": cfg.resolved(),
        "captured_mass": grid.captured_mass,
        "ellipticity": {"value": eps, "sigma": eps_sigma},
        **({} if step is None else {"diagnostics": {"step": step}}),
    })
    return 0


def cmd_fit(args) -> int:
    dataset = est.TimeSeriesDataset.from_csv(args.data)
    if args.fit_model == "exp":
        result = est.fit_exp_decay(dataset)
    else:
        result = est.fit_ramsey(dataset)
    _write_json(args.json_out, {
        "command": "fit",
        "config": {"data": args.data, "fit_model": args.fit_model},
        "params": result.params,
        "sigmas": result.sigmas,
        "residual_norm": result.residual_norm,
        "converged": result.converged,
    })
    return 0


def cmd_bounds(args) -> int:
    prof = PROFILES[args.profile]
    f_hz = prof["f_hz"] if args.f_hz is None else args.f_hz
    ap_hw = prof["ap_hw"] if args.ap_hw is None else args.ap_hw
    x0 = prof["x0_m"] if args.x0 is None else args.x0
    _write_json(args.json_out, est.bounds_report(
        t1=args.t1_us * 1e-6, sigma_t1=args.st1_us * 1e-6,
        t2=args.t2_us * 1e-6, sigma_t2=args.st2_us * 1e-6,
        omega=2.0 * math.pi * f_hz, ap_hw=ap_hw, x0=x0,
        epsilon=args.epsilon, sigma_epsilon=args.sigma_epsilon))
    return 0


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The command line's parser, built once per process: ``parse_args``
    keeps no state between calls."""
    parser = argparse.ArgumentParser(
        prog="decolab",
        description="Spacetime-fluctuation decoherence laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    for name in ("simulate", "ensemble", "analytic", "wigner"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="flat key=value file")

    p = sub.add_parser("fit")
    p.add_argument("--data", required=True, help="CSV with header t_us,y[,sigma]")
    p.add_argument("--fit-model", choices=("exp", "ramsey"), required=True)
    p.add_argument("--json-out", default="")

    p = sub.add_parser("bounds")
    p.add_argument("--t1-us", type=float, required=True)
    p.add_argument("--st1-us", type=float, default=0.0)
    p.add_argument("--t2-us", type=float, required=True)
    p.add_argument("--st2-us", type=float, default=0.0)
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--sigma-epsilon", type=float, default=0.0)
    p.add_argument("--profile", default="hbar-16ug", choices=sorted(PROFILES))
    p.add_argument("--f-hz", type=float, default=None)
    p.add_argument("--ap-hw", type=float, default=None)
    p.add_argument("--x0", type=float, default=None)
    p.add_argument("--json-out", default="")
    return parser


def _memory_sizes(cfg: RunConfig, command: str) -> str:
    """The sizes of a config that set how much memory its command takes."""
    n_steps = integrate._step_count(cfg.t_end, cfg.dt)
    # the length of integrate._sample_grid, counted without building the
    # grid: building it may be what ran out of memory
    n_samples = len(range(0, n_steps, cfg.sample_every)) + 1
    sizes = [f"{n_samples} samples (t_end / (dt sample_every))"]
    if command != "analytic":
        sizes.insert(0, f"dim={cfg.dim}")
    if command == "ensemble":
        # the ensemble's sums hold samples x dim², its noise chunk_size x steps
        sizes += [f"chunk_size={cfg.chunk_size}", f"{n_steps} steps (t_end / dt)"]
    if command == "wigner":
        sizes.append(f"grid_points={cfg.grid_points}")
    return ", ".join(sizes)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if args.command == "fit":
            return cmd_fit(args)
        if args.command == "bounds":
            return cmd_bounds(args)
        cfg = RunConfig.from_file(args.config)
        handler = {"simulate": cmd_simulate, "ensemble": cmd_ensemble,
                   "analytic": cmd_analytic, "wigner": cmd_wigner}[args.command]
        try:
            return handler(cfg)
        except MemoryError:
            raise ConfigError(f"out of memory for this config "
                              f"({_memory_sizes(cfg, args.command)}); lower one of "
                              f"them") from None
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ModelInconsistencyError as exc:
        print(f"model inconsistency: {exc}", file=sys.stderr)
        return 4
    except (PositivityError, FitFailureError, np.linalg.LinAlgError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
