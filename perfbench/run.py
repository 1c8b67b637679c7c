"""Run one benchmark workload through the decolab CLI and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  The workload's operations are ``decolab.cli.main`` calls made in
this process, repeated in whole rounds until ``--seconds`` have passed.  Each
operation's output is checked afterwards against an independent reference
(see ``workloads.py``).  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it is a run record (machine, versions, rounds, per-operation timings and any
failures).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` spends the
first half of the time untraced and the second half with spans recorded
around every public function of the decolab modules, and reports per-layer
metrics; the spans are written to ``.perfbench_out/`` at the end.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

T_START = time.perf_counter()
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".perfbench_out"
#: BLAS threads in the benchmark's process: at most the core count of the
#: 2-core reference machine, and one thread keeps figures steadier on a
#: shared host
BLAS_THREADS = 1
SETUP_PROBES = 5
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", default="",
                   help="import decolab, write the inputs into this directory "
                        "and exit (used to time set-up)")
    return p.parse_args(argv)


def load(workload: str, seed: int, outdir: Path):
    """Set-up: import the package and write the workload's inputs."""
    if not (ROOT / "src" / "decolab" / "__init__.py").is_file():
        raise SystemExit(f"no decolab sources under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    import decolab
    import decolab.cli  # noqa: F401  (the entry point every operation calls)
    from workloads import WORKLOADS
    if workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {workload!r}; choose from {sorted(WORKLOADS)}")
    outdir.mkdir(parents=True, exist_ok=True)
    return decolab, WORKLOADS[workload](seed, outdir)


class Runner:
    """Repeats a workload's operations in rounds and keeps what they wrote.

    Outputs that repeat a round's bytes exactly are kept once, with the
    number of attempts that produced them; every distinct output is checked.
    """

    def __init__(self, package, workload):
        self.package = package
        self.workload = workload
        n = len(workload.ops)
        self.records = [dict() for _ in range(n)]   # key -> [rc, blobs, argv, count]
        self.op_seconds = [[] for _ in range(n)]
        self.rounds = []                              # (wall_s, bytes written)

    def main(self, argv):
        return self.package.cli.main(argv)

    def round(self) -> None:
        wall = 0.0
        written = 0
        done = {}
        for i, op in enumerate(self.workload.ops):
            argv = op.argv(done) if callable(op.argv) else op.argv
            for path in op.outputs:
                if os.path.exists(path):
                    os.remove(path)
            t0 = time.perf_counter()
            try:
                rc = self.main(argv)
            except Exception as exc:       # a traceback is a failed operation
                rc = f"{type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t0
            wall += dt
            self.op_seconds[i].append(dt)
            blobs = {p: Path(p).read_bytes() for p in op.outputs if os.path.exists(p)}
            written += sum(len(b) for b in blobs.values())
            done.update(blobs)
            digest = hashlib.sha256(repr((rc, argv)).encode())
            for p in sorted(blobs):
                digest.update(blobs[p])
            rec = self.records[i].setdefault(digest.hexdigest(), [rc, blobs, argv, 0])
            rec[3] += 1
        self.rounds.append((wall, written))

    def run_for(self, seconds: float) -> None:
        """Whole rounds, at least one, while the next is expected to end
        within ``seconds`` (judged by the length of the last round)."""
        start = time.perf_counter()
        self.round()
        while time.perf_counter() - start + self.rounds[-1][0] <= seconds:
            self.round()

    def distinct_outputs(self, path):
        for recs in self.records:
            for _, blobs, _, _ in recs.values():
                if path in blobs:
                    yield blobs[path]

    def check(self):
        """(attempted, failed, problems) over every recorded output."""
        attempted = failed = 0
        problems = []
        for op, recs in zip(self.workload.ops, self.records):
            for rc, blobs, argv, count in recs.values():
                attempted += count
                if rc != 0:
                    found = [f"exit {rc}"]
                else:
                    try:
                        found = op.check(blobs, argv)
                    except Exception as exc:
                        found = [f"check raised {type(exc).__name__}: {exc}"]
                if found:
                    failed += count
                    problems.append(f"{op.label}: {'; '.join(found)}")
        return attempted, failed, problems


def time_setup(args) -> list:
    """Wall time of fresh processes that import decolab and write the inputs."""
    env = dict(os.environ)
    times = []
    for k in range(SETUP_PROBES):
        outdir = OUT_DIR / f"probe-{os.getpid()}-{k}"
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             args.workload, "--seed", str(args.seed), "--setup-probe", str(outdir)],
            env=env, cwd=ROOT, capture_output=True, timeout=120)
        times.append(time.perf_counter() - t0)
        shutil.rmtree(outdir, ignore_errors=True)
        if proc.returncode != 0:
            raise SystemExit(f"set-up probe failed: {proc.stderr.decode()[-2000:]}")
    return times


def per_layer(stats: dict, rounds: int, bytes_per_round: float,
              overhead: float) -> dict:
    """Per-layer metrics from span statistics of ``rounds`` traced rounds."""
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "info": 0.0, "by_info": {}}

    def rec(name):
        return stats.get(name, empty)

    def per_call(name, scale):
        r = rec(name)
        return r["total_s"] / r["calls"] * scale if r["calls"] else 0.0

    def by_kind(name, kind):
        count, total = rec(name)["by_info"].get(kind, (0, 0.0))
        return total / count * 1e6 if count else 0.0

    def layer_self(prefix):
        return sum(r["self_s"] for n, r in stats.items() if n.startswith(prefix)) / rounds

    m = {}
    for fn in ("gup_markov_rhs", "breuer_rhs", "gup_nonmarkov_rhs", "memory_operator"):
        name = f"generators.{fn}"
        m[f"{name}.calls"] = (rec(name)["calls"] / rounds, "count")
        m[f"{name}.us_per_call"] = (per_call(name, 1e6), "us")
    m["integrate.evolve.calls"] = (rec("integrate.evolve")["calls"] / rounds, "count")
    m["integrate.evolve.self_s"] = (rec("integrate.evolve")["self_s"] / rounds, "s")
    m["trajectories.sample_noise.white_us_per_path"] = (
        by_kind("trajectories.sample_noise", 0.0), "us")
    m["trajectories.sample_noise.ou_us_per_path"] = (
        by_kind("trajectories.sample_noise", 1.0), "us")
    ens = rec("trajectories.ensemble_average")
    m["trajectories.ensemble_average.us_per_traj_step"] = (
        ens["self_s"] / ens["info"] * 1e6 if ens["info"] else 0.0, "us")
    m["fock.wigner.ms_per_grid"] = (per_call("fock.wigner", 1e3), "ms")
    for fn in ("fit_exp_decay", "fit_ramsey"):
        name = f"estimate.{fn}"
        r = rec(name)
        m[f"{name}.ms_per_fit"] = (per_call(name, 1e3), "ms")
        m[f"{name}.nfev_per_fit"] = (r["info"] / r["calls"] if r["calls"] else 0.0,
                                     "count")
    m["estimate.ellipticity_from_wigner.ms"] = (
        per_call("estimate.ellipticity_from_wigner", 1e3), "ms")
    m["estimate.bounds_report.us"] = (per_call("estimate.bounds_report", 1e6), "us")
    m["analytic.self_s"] = (layer_self("analytic."), "s")
    m["cli.main.self_s"] = (layer_self("cli."), "s")
    m["cli.bytes_written"] = (bytes_per_round, "bytes")
    m["trace.overhead_s"] = (overhead, "s")
    return m


def op_medians(ops, seconds) -> dict:
    """Median seconds per operation label, over every attempt with that label."""
    by_label = {}
    for op, ts in zip(ops, seconds):
        by_label.setdefault(op.label, []).extend(ts)
    return {label: statistics.median(ts) for label, ts in by_label.items()}


def part_medians(workload, seconds) -> dict:
    """Median over rounds of the time each part of the workload took."""
    out, start = {}, 0
    for sub in workload.subs:
        ops = range(start, start + len(sub.ops))
        start += len(sub.ops)
        out[sub.name] = statistics.median(
            sum(seconds[i][r] for i in ops) for r in range(len(seconds[0])))
    return out


def versions(package) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"decolab": package.__version__, "numpy": numpy.__version__,
            "scipy": scipy.__version__, "python": platform.python_version(),
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    if args.setup_probe:
        load(args.workload, args.seed, Path(args.setup_probe))
        return 0

    workdir = OUT_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    package, workload = load(args.workload, args.seed, workdir)
    main_setup = time.perf_counter() - T_START
    runner = Runner(package, workload)
    tracer = None
    try:
        if args.trace:
            from tracer import Tracer
            runner.run_for(args.seconds / 2.0)
            untraced = len(runner.rounds)
            tracer = Tracer()
            tracer.install(package)
            try:
                runner.run_for(args.seconds / 2.0)
            finally:
                tracer.uninstall()
        else:
            runner.run_for(args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        setup_times = time_setup(args)
        t_ref = time.perf_counter()
        attempted, failed, problems = runner.check()
        run_problems = workload.run_checks(runner)
        check_s = time.perf_counter() - t_ref
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    walls = [r[0] for r in runner.rounds]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rounds": len(runner.rounds),
        "operations_per_round": len(workload.ops),
        "blas_threads": BLAS_THREADS, "nproc": os.cpu_count(),
        "versions": versions(package), "main_setup_s": main_setup,
        "setup_probe_s": setup_times, "check_s": check_s,
        "round_wall_s": walls,
        "part_median_s": part_medians(workload, runner.op_seconds),
        "op_median_s": op_medians(workload.ops, runner.op_seconds),
        "failures": problems[:20], "run_check_problems": run_problems,
    }
    if tracer is not None:
        traced = runner.rounds[untraced:]
        overhead = (statistics.median(r[0] for r in traced)
                    - statistics.median(walls[:untraced]))
        metrics = per_layer(tracer.stats(), len(traced),
                            statistics.mean(r[1] for r in traced), overhead)
        trace_path = OUT_DIR / f"trace-{args.workload}-{args.seed}.json"
        tracer.write(trace_path)
        record["trace_file"] = str(trace_path.relative_to(ROOT))
        record["traced_rounds"] = len(traced)
        record["spans"] = len(tracer)
    else:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "wall_s": (statistics.median(walls), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    print(json.dumps(record))
    print(json.dumps({
        "correct": not run_problems, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
