#!/usr/bin/env python3
"""Byte sweep of the command line's outputs, for comparing two checkouts.

Runs `decolab simulate` and `decolab wigner` over the four models, gamma
{0, 0.03}, the vacuum, (|0>+|1>)/sqrt(2) and |1>, and each `--dim`;
two `gup-markov` runs on the exact blocks at rates far past any step (dim 4,
c = 1e150): undamped, whose matrix exponential overflows (exit 3), and at
gamma = 1e300, which settles within its first sample; two `gup-markov`
runs on the exact blocks at dim 24, damped and not, whose last sample
interval is half the others, so each block takes two matrix exponentials;
four short `simulate` runs sampled at every step, one on each propagator:
`gup-markov` at dim 24 (the exact blocks), `breuer` at dim 34 above the
block limit, undamped (the split step) and at gamma = 0.03 (Lawson's step),
and `gup-nonmarkov` at dim 12 (plain RK4);
one `gup-nonmarkov` run at dim 40 and dt 0.1, past plain RK4's stability
region with the phases (exit 2); one weakly coupled undamped `breuer` run
at dim 34 (omega tau_D 1e4), whose split step is longer than the
`breuer` runs' at omega tau_D 50;
`decolab analytic` over the four models and both gammas; the
white `gup-markov` (sampled every 20 steps and every step), OU `gup-nonmarkov`
and white `breuer` ensembles at dim 16,
`decolab fit` of seeded exp and Ramsey traces with and without a sigma
column, and `decolab bounds` from the paper's inputs with and without the
ellipticity.  Every output goes into `--out-dir`; the input and output paths
are dropped from each JSON, so two checkouts that compute the same numbers
write the same bytes.
Prints one `<sha256>  <file>` line per output file, sorted by name, and one
`exit <code>  <run>` line per run that did not exit 0; it exits 1 when a run
exits with another code than the one it expects (0, or its code in
`REFUSED`).  Compare two checkouts with `diff` on what this prints:

    PYTHONPATH=src python scripts/byte_sweep.py --out-dir sweep > sums.txt

With `--against DIR`, the sweep of another checkout, it then prints, for each
output file in both directories, the largest absolute and relative difference
over the numbers at the same place (CSV cells, JSON values), and the count of
other values that differ, so that a change that moves numbers at rounding
level states its movement from one command.  A run whose
`diagnostics.propagator` differs gets one more line,
`propagator <theirs> -> <ours>  <run>`:

    PYTHONPATH=src python scripts/byte_sweep.py --out-dir new --against old
"""

import argparse
import contextlib
import hashlib
import io
import json
import math
import pathlib
import shutil
import sys

from decolab.cli import MODELS
from decolab.cli import main as cli_main
from decolab.estimate import TimeSeriesDataset, synthesize_dataset

STATES = {"vacuum": "vacuum", "sup01": "superposition01", "fock1": "fock(1)"}
# RK4's step check admits dt c (a_max - a_min)² = 1.3 for K² at dim 34
COMMON = {"omega_tau_g": 1e4, "omega_tau_d": 50.0, "beta_bar": 1.0, "ap_hw": 1e-3,
          "t_end": 20.0, "dt": 0.02, "sample_every": 100,
          "observables": "rho_00,abs_rho_01,re_rho_01,im_rho_01,rho_11",
          "grid_halfwidth": 4.0, "grid_points": 41}
MEMORY = {"kernel": "exponential", "omega_tau_kernel": 2.0}
# c = 1/(omega tau_G) = 1e150: without damping the exact blocks' expm
# overflows; with gamma = 1e300 it takes a thousand squarings
STIFF = {"model": "gup-markov", "dim": 4, "ap_hw": 1e100, "omega_tau_g": 1e-150,
         "initial_state": "vacuum", "observables": "rho_00,rho_11,rho_22"}
# dt max |Δ| = 3.9 > √8: plain RK4's step check refuses it
PHASES = {"model": "gup-nonmarkov", "dim": 40, "ap_hw": 1.5e-33, "beta_bar": 0.0,
          "omega_tau_g": 1e6, "initial_state": "superposition01", "dt": 0.1,
          **MEMORY}
# c = 5e-5: the split step's rule h⁴ c ν⁴ <= κ takes h = 0.4 (0.1 at c = 0.01)
WEAK = {"model": "breuer", "dim": 34, "omega_tau_d": 1e4,
        "initial_state": "superposition01"}
# t_end is 10.5 sample strides: every block takes one expm of the generator
# scaled in a copy, for the whole stride, and one scaled in place, for the half
TWO_INTERVALS = {"model": "gup-markov", "dim": 24, "initial_state": "superposition01",
                 "t_end": 21.0}
# 51 samples, one per step: the sample store written at every step, on
# each propagator: (model, dim, gamma)
EVERY_STEP = (("gup-markov", 24, 0.0), ("breuer", 34, 0.0), ("breuer", 34, 0.03),
              ("gup-nonmarkov", 12, 0.0))
DENSE = {"initial_state": "superposition01", "t_end": 1.0, "sample_every": 1}
#: the runs that the sweep expects to fail, with their exit codes
REFUSED = {"simulate-gup-markov-stiff": 3, "simulate-gup-nonmarkov-phases-d40": 2}
# t_end is not a whole number of sample strides, so the last row is the end sample
ANALYTIC = {"t_end": 10.0, "dt": 0.03}
ENSEMBLES = {
    "ens-gup-markov-white": {"model": "gup-markov"},
    # 121 samples: the streamed fold at every step
    "ens-gup-markov-white-every-step": {"model": "gup-markov", "sample_every": 1},
    "ens-gup-nonmarkov-ou": {"model": "gup-nonmarkov", "noise_kind": "ornstein-uhlenbeck",
                             **MEMORY},
    "ens-breuer-white": {"model": "breuer"},
}
ENSEMBLE = {"omega_tau_g": 500.0, "ap_hw": 1.5e-33, "dim": 16,
            "initial_state": "superposition01", "t_end": 3.0,
            "dt": 0.025, "sample_every": 20, "n_traj": 256, "seed": 7}


#: truth and time span (s) of the seeded 80-point traces `fit` reads
FITS = {"exp": ({"A": 1.0, "T1": 85.8e-6, "C": 0.0}, 400e-6),
        "ramsey": ({"A": 1.0, "T2": 147.3e-6, "f": 6.0e4, "phi": 0.4, "C": 0.0},
                   300e-6)}
#: the paper's decay times (us) and ground-state ellipticity
PAPER = ["--t1-us", "85.8", "--st1-us", "1.5", "--t2-us", "147.3", "--st2-us", "2.6"]
BOUNDS = {"bounds-paper": PAPER + ["--epsilon", "0.020", "--sigma-epsilon", "0.005"],
          "bounds-paper-no-epsilon": PAPER}


def runs(out: pathlib.Path, dims):
    """(name, argv) of every run of the sweep; writes the configs and data
    files the runs read into `out / "inputs"`."""
    inputs = out / "inputs"

    def configured(name, command, cfg):
        cfg = {**cfg, "csv_out": str(out / f"{name}.csv"),
               "json_out": str(out / f"{name}.json")}
        path = inputs / f"{name}.cfg"
        path.write_text("".join(f"{k} = {v}\n" for k, v in cfg.items()))
        return name, [command, "--config", str(path)]

    for model in MODELS:
        for gamma in (0.0, 0.03):
            for label, state in STATES.items():
                for dim in dims:
                    cfg = {**COMMON, "model": model, "gamma_dimless": gamma,
                           "initial_state": state, "dim": dim}
                    if model == "gup-nonmarkov":
                        cfg.update(MEMORY)
                    for command in ("simulate", "wigner"):
                        yield configured(f"{command}-{model}-g{gamma:g}-{label}-d{dim}",
                                         command, cfg)
            cfg = {**COMMON, **ANALYTIC, "model": model, "gamma_dimless": gamma}
            if model == "gup-nonmarkov":
                cfg.update(MEMORY)
            yield configured(f"analytic-{model}-g{gamma:g}", "analytic", cfg)
    yield configured("simulate-gup-markov-stiff", "simulate", {**COMMON, **STIFF})
    yield configured("simulate-gup-markov-stiff-damped", "simulate",
                     {**COMMON, **STIFF, "gamma_dimless": 1e300})
    for gamma in (0.0, 0.03):
        yield configured(f"simulate-gup-markov-g{gamma:g}-sup01-d24-two-intervals",
                         "simulate", {**COMMON, **TWO_INTERVALS, "gamma_dimless": gamma})
    for model, dim, gamma in EVERY_STEP:
        cfg = {**COMMON, **DENSE, "model": model, "dim": dim, "gamma_dimless": gamma}
        if model == "gup-nonmarkov":
            cfg.update(MEMORY)
        damped = "-damped" if gamma else ""
        yield configured(f"simulate-{model}-sup01-d{dim}-every-step{damped}",
                         "simulate", cfg)
    yield configured("simulate-gup-nonmarkov-phases-d40", "simulate", {**COMMON, **PHASES})
    yield configured("simulate-breuer-weak-sup01-d34", "simulate", {**COMMON, **WEAK})
    for name, extra in ENSEMBLES.items():
        yield configured(name, "ensemble", {**COMMON, **ENSEMBLE, **extra})
    for model, (truth, t_max) in FITS.items():
        ds = synthesize_dataset(model, truth, 80, 0.02, 7, t_max)
        for label, sigma in (("sigma", ds.sigma), ("no-sigma", None)):
            name = f"fit-{model}-{label}"
            data = inputs / f"{name}.csv"
            TimeSeriesDataset(t=ds.t, y=ds.y, sigma=sigma).to_csv(data)
            yield name, ["fit", "--data", str(data), "--fit-model", model,
                         "--json-out", str(out / f"{name}.json")]
    for name, flags in BOUNDS.items():
        yield name, ["bounds", *flags, "--json-out", str(out / f"{name}.json")]


def run(out: pathlib.Path, name: str, argv: list) -> int:
    """One `decolab` run, then the paths dropped from its JSON's config."""
    with contextlib.redirect_stderr(io.StringIO()):
        code = cli_main(argv)
    js = out / f"{name}.json"
    if js.exists():
        data = json.loads(js.read_text())
        if "config" in data:
            for key in ("csv_out", "json_out", "data"):
                data["config"].pop(key, None)
            js.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    return code


def _values(path: pathlib.Path) -> dict:
    """The cells of a CSV or the leaf values of a JSON, keyed by place."""
    text = path.read_text()
    if path.suffix == ".csv":
        return {(i, j): cell for i, line in enumerate(text.splitlines())
                for j, cell in enumerate(line.split(","))}
    flat = {}

    def walk(key, value):
        items = (value.items() if isinstance(value, dict)
                 else enumerate(value) if isinstance(value, list) else None)
        if items is None:
            flat[key] = value
        else:
            for k, v in items:
                walk(key + (k,), v)

    walk((), json.loads(text))
    return flat


def _number(value):
    """A CSV cell or JSON value as a float, or None if it is not a number."""
    if isinstance(value, bool) or value is None:
        return None
    try:
        return float(value)
    except ValueError:
        return None


def compare(a: pathlib.Path, b: pathlib.Path) -> tuple[float, float, int]:
    """(largest absolute, largest relative difference) over the numbers at
    the same place in a and b, and the count of other places that differ."""
    x, y = _values(a), _values(b)
    worst_abs = worst_rel = 0.0
    other = 0
    for key in x.keys() | y.keys():
        u, v = _number(x.get(key)), _number(y.get(key))
        if u is None or v is None:
            other += x.get(key) != y.get(key)
        elif u != v and not (u != u and v != v):   # NaN equals NaN here
            d = abs(u - v)
            rel = d / max(abs(u), abs(v))
            if not d < math.inf:   # NaN or inf against another value
                d = rel = math.inf
            worst_abs, worst_rel = max(worst_abs, d), max(worst_rel, rel)
    return worst_abs, worst_rel, other


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out-dir", default="byte_sweep_out")
    parser.add_argument("--dim", type=int, nargs="+", default=[12, 24, 34],
                        help="cutoffs of the simulate and wigner runs")
    parser.add_argument("--against", type=pathlib.Path,
                        help="the out-dir of another checkout's sweep, to compare with")
    args = parser.parse_args()

    out = pathlib.Path(args.out_dir)
    (out / "inputs").mkdir(parents=True, exist_ok=True)
    failed = 0
    for name, argv in runs(out, args.dim):
        code = run(out, name, argv)
        if code:
            print(f"exit {code}  {name}")
        failed += code != REFUSED.get(name, 0)
    shutil.rmtree(out / "inputs")
    for path in sorted(out.iterdir()):
        print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.name}")
    if args.against is not None:
        names = {p.name for p in out.iterdir()}
        theirs = {p.name for p in args.against.iterdir()}
        for name in sorted(names ^ theirs):
            print(f"only in {out if name in names else args.against}  {name}")
        for name in sorted(names & theirs):
            d_abs, d_rel, other = compare(out / name, args.against / name)
            print(f"abs {d_abs:.3g}  rel {d_rel:.3g}  other {other}  {name}")
            if name.endswith(".json"):
                mine, other_side = (_values(d / name).get(("diagnostics", "propagator"))
                                    for d in (out, args.against))
                if mine != other_side:
                    print(f"propagator {other_side} -> {mine}  {name[:-5]}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
