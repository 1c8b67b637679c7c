"""The benchmark's four workloads: inputs, operations and output checks.

A workload writes its inputs into a directory when it is built, and lists its
operations: each is one ``decolab`` command line, the files it writes and a
check of its outputs.  A run repeats the whole list of operations in rounds.
The benchmark's two workloads each join two parts, so that a run of fixed
length holds as many rounds as it can (see ``WORKLOADS``).  The checks
compare outputs with ``references`` (never with stored copies of earlier
output) or with properties of the method; each returns a list of problems,
empty when the output is right.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import references as ref

AP_HW = 1.5e-33          # the CLI's default a_P hbar omega
PROFILE = {"f_hz": 5.96e9, "ap_hw": 1.5e-33, "x0": 2.9e-19}   # hbar-16ug


@dataclass
class Op:
    """One CLI invocation and how to judge what it wrote."""

    label: str
    argv: list | Callable[[dict], list]   # callable: built from earlier outputs
    outputs: list[str]
    check: Callable[[dict, list], list]    # ({path: bytes}, argv) -> problems


def write_config(path: Path, **values) -> str:
    path.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
    return str(path)


def read_csv(blob: bytes) -> dict:
    lines = blob.decode().strip().splitlines()
    header = lines[0].split(",")
    data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return {name: data[:, i] for i, name in enumerate(header)}


def element(name: str) -> tuple:
    """(a, b, part) of an observable name such as ``re_rho_0_1``."""
    part, _, rest = name.rpartition("rho_")
    a, b = rest.split("_")
    return int(a), int(b), part.rstrip("_")


def value_of(rho: np.ndarray, name: str) -> np.ndarray:
    a, b, part = element(name)
    x = rho[..., a, b]
    return {"re": np.real, "im": np.imag, "abs": np.abs, "": np.real}[part](x)


def populations(dim: int) -> list:
    return [f"rho_{n}_{n}" for n in range(dim)]


def rk4_amplitude_error(n_steps: int, dt: float) -> float:
    """Relative amplitude loss of a unit-frequency rotation after n RK4 steps.

    |R(i h)| = 1 - h⁶/144 + O(h⁸) for the RK4 stability function R.
    """
    return n_steps * dt ** 6 / 144.0


def check_master_equation(blobs: dict, csv: str, js: str, times, reference,
                          *, pop_tol: float, coh_rel: float,
                          coh_abs: float) -> list:
    """Compare a ``simulate`` CSV with reference states and read its JSON.

    Every population is compared, so the trace is checked as well; |rho_01|
    may sit below the reference by the RK4 amplitude loss ``coh_rel``.
    """
    problems = []
    cols = read_csv(blobs[csv])
    if not np.allclose(cols["t_omega"], times, rtol=0, atol=1e-9):
        return [f"sample times {cols['t_omega']} != {times}"]
    dim = reference.shape[1]
    worst = max(float(np.max(np.abs(cols[n] - value_of(reference, n))))
                for n in populations(dim))
    if worst > pop_tol:
        problems.append(f"population off the reference by {worst:.3e} > {pop_tol:.1e}")
    want = np.abs(reference[:, 0, 1])
    gap = np.abs(cols["abs_rho_0_1"] - want)
    tol = coh_rel * want + coh_abs
    if np.any(gap > tol):
        problems.append(f"|rho_01| off the reference by {np.max(gap):.3e} > {np.max(tol):.1e}")
    diag = json.loads(blobs[js])["diagnostics"]
    if not (diag["max_trace_drift"] <= 1e-10 and diag["max_herm_drift"] <= 1e-10
            and diag["min_eigenvalue"] >= -1e-10):
        problems.append(f"diagnostics out of range: {diag}")
    return problems


class Workload:
    """Base: subclasses fill ``ops`` in ``__init__``."""

    name = ""

    def __init__(self, seed: int, outdir: Path):
        self.seed = seed
        self.outdir = outdir
        self.ops: list[Op] = []
        self._refs = None

    def path(self, name: str) -> str:
        return str(self.outdir / name)

    def run_checks(self, ctx) -> list:
        """Run-level checks made once, outside the timed region."""
        return []

    @property
    def refs(self):
        if self._refs is None:
            self._refs = self.references()
        return self._refs

    def references(self):
        return {}


class MarkovEvolution(Workload):
    """Three deformation-model decay curves at criterion 3's parameters and
    one metric-model run at a larger cutoff, each against exp(L t)."""

    name = "markov-evolution"
    T_END = 200.0
    DT = 0.05
    SAMPLE = 4000                    # one sample per 200 omega*t
    STATES = ("vacuum", "superposition01", "fock(1)")

    def __init__(self, seed: int, outdir: Path):
        super().__init__(seed, outdir)
        rng = np.random.default_rng([seed, 1])
        self.omega_tau_g = float(125e3 * 2.0 ** rng.uniform(-0.5, 0.5))
        self.omega_tau_d = float(1e4 * 2.0 ** rng.uniform(-0.5, 0.5))
        self.times = np.arange(0.0, self.T_END + 1.0, self.SAMPLE * self.DT)
        runs = [("gup", "gup-markov", 24, s, {"omega_tau_g": self.omega_tau_g,
                                               "beta_bar": 1.0})
                for s in self.STATES]
        runs.append(("breuer", "breuer", 40, "superposition01",
                     {"omega_tau_d": self.omega_tau_d}))
        self.runs = runs
        for i, (tag, model, dim, state, extra) in enumerate(runs):
            stem = f"{tag}-{i}"
            cfg = write_config(
                outdir / f"{stem}.cfg", model=model, dim=dim,
                initial_state=state, t_end=self.T_END, dt=self.DT,
                sample_every=self.SAMPLE,
                observables=",".join(populations(dim) + ["abs_rho_0_1"]),
                csv_out=self.path(f"{stem}.csv"),
                json_out=self.path(f"{stem}.json"), **extra)
            self.ops.append(Op(
                label=f"simulate {model} {state} dim {dim}",
                argv=["simulate", "--config", cfg],
                outputs=[self.path(f"{stem}.csv"), self.path(f"{stem}.json")],
                check=self._checker(i)))

    def references(self):
        out = {}
        gup = [r for r in self.runs if r[0] == "gup"]
        lv = ref.liouvillian("gup-markov", 24, omega_tau_g=self.omega_tau_g,
                             beta_bar=1.0, ap_hw=AP_HW)
        for i, (_, _, dim, state, _) in enumerate(gup):
            out[i] = ref.markov_states(lv, ref.initial_density(state, dim),
                                       self.times)
        i = len(gup)
        _, _, dim, state, _ = self.runs[i]
        lv = ref.liouvillian("breuer", dim, omega_tau_d=self.omega_tau_d)
        out[i] = ref.markov_states(lv, ref.initial_density(state, dim), self.times)
        return out

    def _checker(self, i: int):
        def check(blobs, argv):
            csv, js = self.ops[i].outputs
            n_steps = int(round(self.T_END / self.DT))
            return check_master_equation(
                blobs, csv, js, self.times, self.refs[i], pop_tol=1e-10,
                coh_rel=2.0 * rk4_amplitude_error(n_steps, self.DT),
                coh_abs=1e-10)
        return check


class MemoryEvolution(Workload):
    """The exponential-kernel master equation from the three initial states,
    against the exact-memory reference.  Inputs do not depend on the seed."""

    name = "memory-evolution"
    DIM = 12
    OMEGA_TAU_G = 500.0
    OMEGA_TAU_KERNEL = 2.0
    DT = 0.1
    T_END = 40.0
    SAMPLE = 100
    STATES = ("vacuum", "superposition01", "fock(1)")
    #: twice RK4's own error at dt = 0.1 (4.6e-8 on populations, measured
    #: against a reference that applies the program's 8-tau window)
    POP_TOL = 1e-7

    def __init__(self, seed: int, outdir: Path):
        super().__init__(seed, outdir)
        self.times = np.arange(0.0, self.T_END + 1e-9, self.SAMPLE * self.DT)
        for i, state in enumerate(self.STATES):
            cfg = write_config(
                outdir / f"mem-{i}.cfg", model="gup-nonmarkov", dim=self.DIM,
                initial_state=state, omega_tau_g=self.OMEGA_TAU_G,
                kernel="exponential", omega_tau_kernel=self.OMEGA_TAU_KERNEL,
                t_end=self.T_END, dt=self.DT, sample_every=self.SAMPLE,
                observables=",".join(populations(self.DIM) + ["abs_rho_0_1"]),
                csv_out=self.path(f"mem-{i}.csv"),
                json_out=self.path(f"mem-{i}.json"))
            self.ops.append(Op(
                label=f"simulate gup-nonmarkov {state} dim {self.DIM}",
                argv=["simulate", "--config", cfg],
                outputs=[self.path(f"mem-{i}.csv"), self.path(f"mem-{i}.json")],
                check=self._checker(i)))

    def references(self):
        return {i: ref.memory_states(
                    ref.initial_density(state, self.DIM), self.times,
                    omega_tau_g=self.OMEGA_TAU_G,
                    omega_tau_kernel=self.OMEGA_TAU_KERNEL)
                for i, state in enumerate(self.STATES)}

    def _checker(self, i: int):
        def check(blobs, argv):
            csv, js = self.ops[i].outputs
            n_steps = int(round(self.T_END / self.DT))
            return check_master_equation(
                blobs, csv, js, self.times, self.refs[i], pop_tol=self.POP_TOL,
                coh_rel=2.0 * rk4_amplitude_error(n_steps, self.DT),
                coh_abs=self.POP_TOL)
        return check


class TrajectoryEnsemble(Workload):
    """White-noise and Ornstein-Uhlenbeck ensembles of the 0-1 superposition,
    each element within a few of its own Monte-Carlo standard errors of the
    Markov (white) or exact-memory second-order (OU) reference."""

    name = "trajectory-ensemble"
    DIM = 16
    OMEGA_TAU_G = 500.0
    OMEGA_TAU_KERNEL = 2.0
    DT = 0.025
    T_END = 3.0
    SAMPLE = 40
    N_TRAJ = 256
    N_SIGMA = 6.0
    OBSERVABLES = ("rho_0_0", "rho_1_1", "rho_2_2", "rho_3_3", "re_rho_0_1",
                   "im_rho_0_1")

    def __init__(self, seed: int, outdir: Path):
        super().__init__(seed, outdir)
        self.times = np.arange(0.0, self.T_END + 1e-9, self.SAMPLE * self.DT)
        for i, kind in enumerate(("white", "ornstein-uhlenbeck")):
            kernel = ({"kernel": "exponential",
                       "omega_tau_kernel": self.OMEGA_TAU_KERNEL}
                      if kind != "white" else {})
            cfg = self._config(f"ens-{i}", kind, self.N_TRAJ, self.T_END,
                               256, **kernel)
            self.ops.append(Op(
                label=f"ensemble {kind} n_traj {self.N_TRAJ}",
                argv=["ensemble", "--config", cfg],
                outputs=[self.path(f"ens-{i}.csv"), self.path(f"ens-{i}.json")],
                check=self._checker(i)))

    def _config(self, stem, kind, n_traj, t_end, chunk_size, **extra):
        return write_config(
            self.outdir / f"{stem}.cfg", model="gup-markov", dim=self.DIM,
            initial_state="superposition01", omega_tau_g=self.OMEGA_TAU_G,
            beta_bar=1.0, dt=self.DT, t_end=t_end, sample_every=self.SAMPLE,
            n_traj=n_traj, noise_kind=kind, seed=self.seed,
            chunk_size=chunk_size, observables=",".join(self.OBSERVABLES),
            csv_out=self.path(f"{stem}.csv"), json_out=self.path(f"{stem}.json"),
            **extra)

    def references(self):
        rho0 = ref.initial_density("superposition01", self.DIM)
        lv = ref.liouvillian("gup-markov", self.DIM, omega_tau_g=self.OMEGA_TAU_G,
                             beta_bar=1.0, ap_hw=AP_HW)
        return {0: ref.markov_states(lv, rho0, self.times),
                1: ref.memory_states(rho0, self.times,
                                     omega_tau_g=self.OMEGA_TAU_G,
                                     omega_tau_kernel=self.OMEGA_TAU_KERNEL,
                                     beta_bar=1.0, ap_hw=AP_HW)}

    def _checker(self, i: int):
        def check(blobs, argv):
            csv, js = self.ops[i].outputs
            cols = read_csv(blobs[csv])
            if not np.allclose(cols["t_omega"], self.times, rtol=0, atol=1e-9):
                return [f"sample times {cols['t_omega']} != {self.times}"]
            problems = []
            for name in self.OBSERVABLES:
                gap = np.abs(cols[name] - value_of(self.refs[i], name))
                allowed = self.N_SIGMA * cols["stderr_" + name] + 1e-10
                if np.any(gap > allowed):
                    k = int(np.argmax(gap / allowed))
                    problems.append(
                        f"{name} at omega*t={self.times[k]:g}: gap {gap[k]:.3e}"
                        f" > {self.N_SIGMA:g} stderr ({allowed[k]:.3e})")
            if json.loads(blobs[js])["n_traj"] != self.N_TRAJ:
                problems.append("JSON n_traj differs from the request")
            return problems
        return check

    def run_checks(self, ctx) -> list:
        """A small ensemble must give the same bytes at two chunk sizes."""
        blobs = []
        for chunk in (32, 100):
            stem = f"chunk-{chunk}"
            cfg = self._config(stem, "white", 100, 0.5, chunk)
            if ctx.main(["ensemble", "--config", cfg]) != 0:
                return [f"chunk_size={chunk} ensemble exited non-zero"]
            blobs.append(Path(self.path(f"{stem}.csv")).read_bytes())
        return [] if blobs[0] == blobs[1] else [
            "ensemble CSV differs between chunk_size 32 and 100"]


class BoundExtraction(Workload):
    """Fits of seeded T1 and Ramsey traces, Wigner grids with closed forms,
    and bounds from the paper's and from the measured inputs."""

    name = "bound-extraction"
    N_POINTS = 80
    NOISE = 0.02
    N_NOISY = 60                      # traces per fit model
    TRUTH = {"exp": {"A": 1.0, "T1": 85.8e-6, "C": 0.0},
             "ramsey": {"A": 1.0, "T2": 147.3e-6, "f": 6.0e4, "phi": 0.4,
                        "C": 0.0}}
    T_MAX = {"exp": 400e-6, "ramsey": 300e-6}
    KEY = {"exp": "T1", "ramsey": "T2"}
    GRID_STATES = ("vacuum", "fock(1)", "fock(3)", "superposition01")
    GRID_DIM = 20
    GRID_HALFWIDTH = 4.0
    GRID_POINTS = 81
    #: the paper's inputs and derived values, as quoted in acceptance
    #: criteria 6 and 7: (JSON path, value, sigma), then (JSON path, value)
    PAPER_INPUTS = {"t1_us": 85.8, "st1_us": 1.5, "t2_us": 147.3, "st2_us": 2.6,
                    "epsilon": 0.020, "sigma_epsilon": 0.005}
    PAPER_VALUES = (
        ("gup.gamma_inv", 169.9e-6, 47.5e-6),
        ("gup.tau_g", 975.2e-6, 237.4e-6),
        ("breuer.gamma_inv", 102.8e-6, 6.9e-6),
        ("breuer.tau_d", 195.0e-6, 47.5e-6),
    )
    PAPER_SCALES = (("gup.kappa", 4.0e46), ("breuer.tau_c", 3.7e-18),
                    ("deformation.beta_bar", 2.2e30))
    PAPER_FEASIBILITY = (("feasibility.mass_frequency_product", 1e113),
                         ("feasibility.omega_sq_over_gamma", 1e43))

    def __init__(self, seed: int, outdir: Path):
        super().__init__(seed, outdir)
        self.noisy = {"exp": [], "ramsey": []}
        for model in ("exp", "ramsey"):
            for j in range(self.N_NOISY):
                rng = np.random.default_rng([seed, 2, len(model), j])
                self._fit_op(model, f"{model}-noisy-{j}", self.TRUTH[model],
                             rng.normal(0.0, self.NOISE, self.N_POINTS))
            self._fit_op(model, f"{model}-clean-paper", self.TRUTH[model], None)
            rng = np.random.default_rng([seed, 3, len(model)])
            varied = {"A": rng.uniform(0.5, 1.0),
                      self.KEY[model]: self.TRUTH[model][self.KEY[model]]
                      * rng.uniform(0.7, 1.4), "C": 0.0}
            if model == "ramsey":
                varied.update(f=rng.uniform(4e4, 8e4), phi=rng.uniform(-3.0, 3.0))
            self._fit_op(model, f"{model}-clean-seeded", varied, None)
        for i, state in enumerate(self.GRID_STATES):
            stem = f"wigner-{i}"
            cfg = write_config(
                outdir / f"{stem}.cfg", model="damping-only", dim=self.GRID_DIM,
                initial_state=state, t_end=0.0, grid_halfwidth=self.GRID_HALFWIDTH,
                grid_points=self.GRID_POINTS, csv_out=self.path(f"{stem}.csv"),
                json_out=self.path(f"{stem}.json"))
            self.ops.append(Op(
                label=f"wigner {state}", argv=["wigner", "--config", cfg],
                outputs=[self.path(f"{stem}.csv"), self.path(f"{stem}.json")],
                check=self._wigner_checker(state, stem)))
        self._bounds_op("bounds-paper", lambda done: self.PAPER_INPUTS, paper=True)
        self._bounds_op("bounds-measured", self._measured_inputs, paper=False)

    # -- fits ---------------------------------------------------------------

    def _fit_op(self, model, stem, truth, noise):
        t = np.linspace(self.T_MAX[model] / self.N_POINTS, self.T_MAX[model],
                        self.N_POINTS)
        key = self.KEY[model]
        y = truth["A"] * np.exp(-t / truth[key]) + truth["C"]
        if model == "ramsey":
            y = (truth["A"] * np.exp(-t / truth[key])
                 * np.cos(2 * np.pi * truth["f"] * t + truth["phi"]) + truth["C"])
        lines = ["t_us,y" + (",sigma" if noise is not None else "")]
        for i in range(self.N_POINTS):
            row = [repr(float(t[i] * 1e6))]
            if noise is None:
                row.append(repr(float(y[i])))
            else:
                row += [repr(float(y[i] + noise[i])), repr(self.NOISE)]
            lines.append(",".join(row))
        data = self.outdir / f"{stem}.csv"
        data.write_text("\n".join(lines) + "\n")
        out = self.path(f"{stem}.json")
        if noise is not None:
            self.noisy[model].append(out)
        self.ops.append(Op(
            label=f"fit {model} {'noisy' if noise is not None else 'noise-free'}",
            argv=["fit", "--data", str(data), "--fit-model", model,
                  "--json-out", out],
            outputs=[out], check=self._fit_checker(out, truth, key, noise)))

    def _fit_checker(self, out, truth, key, noise):
        def check(blobs, argv):
            fit = json.loads(blobs[out])
            if not fit["converged"]:
                return ["fit reports no convergence"]
            if noise is None:
                worst = max(abs(fit["params"][k] - v) / (abs(v) or 1.0)
                            for k, v in truth.items())
                return [] if worst <= 1e-6 else [
                    f"noise-free fit misses the truth by {worst:.2e} relative"]
            z = abs(fit["params"][key] - truth[key]) / fit["sigmas"][key]
            return [] if z <= 5.0 else [f"{key} is {z:.2f} sigma from the truth"]
        return check

    def run_checks(self, ctx) -> list:
        """3-sigma coverage of the decay time over the run's noisy fits."""
        hits = total = 0
        for model, outs in self.noisy.items():
            key, truth = self.KEY[model], self.TRUTH[model][self.KEY[model]]
            for out in outs:
                for blob in ctx.distinct_outputs(out):
                    fit = json.loads(blob)
                    total += 1
                    hits += abs(fit["params"][key] - truth) <= 3.0 * fit["sigmas"][key]
        return [] if hits >= 0.95 * total else [
            f"3-sigma coverage {hits}/{total} is below 95%"]

    # -- Wigner grids -------------------------------------------------------

    def _wigner_checker(self, state, stem):
        def check(blobs, argv):
            cols = read_csv(blobs[self.path(f"{stem}.csv")])
            axis = np.linspace(-self.GRID_HALFWIDTH, self.GRID_HALFWIDTH,
                               self.GRID_POINTS)
            want = ref.wigner(state, axis, axis).ravel()
            problems = []
            if not (np.allclose(cols["x"], np.repeat(axis, len(axis)), atol=1e-11)
                    and np.allclose(cols["p"], np.tile(axis, len(axis)), atol=1e-11)):
                return ["grid coordinates differ from the requested axis"]
            gap = float(np.max(np.abs(cols["w"] - want)))
            if gap > 1e-10:
                problems.append(f"Wigner grid off its closed form by {gap:.3e}")
            if np.max(np.abs(cols["w"])) > 1.0 / math.pi + 1e-12:
                problems.append("|W| exceeds 1/pi")
            summary = json.loads(blobs[self.path(f"{stem}.json")])
            if state == "vacuum" and not abs(summary["ellipticity"]["value"]) <= 1e-6:
                problems.append(f"vacuum ellipticity {summary['ellipticity']}")
            return problems
        return check

    # -- bounds ---------------------------------------------------------------

    def _measured_inputs(self, done: dict) -> dict:
        """Inverse-variance mean of this round's noisy decay times, and the
        ellipticity measured on the vacuum grid."""
        out = {}
        for model, tag in (("exp", "t1"), ("ramsey", "t2")):
            key = self.KEY[model]
            fits = [json.loads(done[p]) for p in self.noisy[model]]
            w = np.array([1.0 / f["sigmas"][key] ** 2 for f in fits])
            vals = np.array([f["params"][key] for f in fits])
            out[f"{tag}_us"] = float(np.sum(w * vals) / np.sum(w)) * 1e6
            out[f"s{tag}_us"] = float(1.0 / math.sqrt(np.sum(w))) * 1e6
        ell = json.loads(done[self.path("wigner-0.json")])["ellipticity"]
        out["epsilon"] = ell["value"]
        out["sigma_epsilon"] = ell["sigma"]
        return out

    def _bounds_op(self, stem, inputs_of, paper):
        out = self.path(f"{stem}.json")

        def argv(done):
            args = ["bounds", "--profile", "hbar-16ug", "--json-out", out]
            for k, v in inputs_of(done).items():
                args += ["--" + k.replace("_", "-"), repr(float(v))]
            return args

        def check(blobs, argv):
            report = json.loads(blobs[out])
            u = {a[2:].replace("-", "_"): float(b)
                 for a, b in zip(argv[5::2], argv[6::2])}
            want = ref.bounds(u["t1_us"] * 1e-6, u["st1_us"] * 1e-6,
                              u["t2_us"] * 1e-6, u["st2_us"] * 1e-6,
                              2.0 * math.pi * PROFILE["f_hz"], PROFILE["ap_hw"],
                              PROFILE["x0"], u["epsilon"], u["sigma_epsilon"])
            problems = []
            got = {}
            for path, (value, sigma) in want.items():
                section, name = path.split(".")
                entry = report[section][name]
                got[path] = (entry["value"], entry["sigma"])
                for a, b in ((entry["value"], value), (entry["sigma"], sigma)):
                    if abs(a - b) > 1e-12 * abs(b):
                        problems.append(f"{path}: {a!r} != closed form {b!r}")
            if paper:
                problems += self._paper_problems(got)
            return problems

        self.ops.append(Op(label=f"bounds {'paper' if paper else 'measured'} inputs",
                           argv=argv, outputs=[out], check=check))

    def _paper_problems(self, got: dict) -> list:
        problems = []
        for path, value, sigma in self.PAPER_VALUES:
            v, s = got[path]
            if abs(v - value) > 0.1e-6 or abs(s / sigma - 1.0) > 0.15:
                problems.append(f"{path} = {v:.4g}({s:.3g}) vs paper {value:.4g}({sigma:.3g})")
        for path, value in self.PAPER_SCALES:
            if abs(got[path][0] / value - 1.0) > 0.05:
                problems.append(f"{path} = {got[path][0]:.3g} vs paper {value:.3g}")
        for path, value in self.PAPER_FEASIBILITY:
            if not 0.5 < got[path][0] / value < 2.0:
                problems.append(f"{path} = {got[path][0]:.3g} vs paper {value:.3g}")
        return problems


class Combined(Workload):
    """Runs the operations of its parts one after another in each round."""

    parts: tuple = ()

    def __init__(self, seed: int, outdir: Path):
        super().__init__(seed, outdir)
        self.subs = [part(seed, outdir) for part in self.parts]
        self.ops = [op for sub in self.subs for op in sub.ops]

    def run_checks(self, ctx) -> list:
        return [p for sub in self.subs for p in sub.run_checks(ctx)]


class MasterEquation(Combined):
    """Every master-equation path: constant generators (exp(L t) checks) and
    the time-dependent memory-kernel generator (exact-memory checks)."""

    name = "master-equation"
    parts = (MarkovEvolution, MemoryEvolution)


class EnsembleAnalysis(Combined):
    """Trajectory ensembles and the fit, Wigner and bounds chain: no
    generator or integrate call."""

    name = "ensemble-analysis"
    parts = (TrajectoryEnsemble, BoundExtraction)


#: Two workloads rather than four: on a shared host whose speed drifts over
#: tens of seconds, longer runs of fewer workloads fit the same time budget
#: with steadier medians.  Each still has a mechanism the other bypasses.
WORKLOADS = {w.name: w for w in (MasterEquation, EnsembleAnalysis)}
