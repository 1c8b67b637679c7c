"""Span recording around the public functions of the decolab modules.

The tracer replaces each public module-level function of a module with a
wrapper, as a module attribute.  Calls made through the module (``generators.
gup_markov_rhs(...)``) and calls between functions of the same module (which
look the name up in the module's globals) both reach the wrapper, so nothing
in the program changes.  ``uninstall`` puts the originals back.

Each span is (name, start, end, parent, info).  Spans live in compact arrays
in memory and are written once, at the end of a run.  ``info`` is a number a
span carries for the statistics: trajectories x steps for ``ensemble_average``,
0/1 for white/OU ``sample_noise``, and ``FitResult.n_eval`` for the fits.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from array import array
from collections import defaultdict

LAYERS = ("cli", "generators", "integrate", "trajectories", "fock",
          "analytic", "estimate")


def _info_ensemble(args, kwargs, result):
    return float(kwargs["n_steps"] * args[2])


def _info_noise(args, kwargs, result):
    return 0.0 if args[0] == "white" else 1.0


def _info_fit(args, kwargs, result):
    return float(result.n_eval)


INFO = {
    "trajectories.ensemble_average": _info_ensemble,
    "trajectories.sample_noise": _info_noise,
    "estimate.fit_exp_decay": _info_fit,
    "estimate.fit_ramsey": _info_fit,
}


class Tracer:
    """Records nested spans of the wrapped functions while installed."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.info = array("d")
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, name: str, fn):
        ident = len(self.names)
        self.names.append(name)
        extract = INFO.get(name)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(ident)
            self.parent.append(stack[-1] if stack else -1)
            self.start.append(0.0)
            self.end.append(0.0)
            self.info.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if extract is not None:
                self.info[idx] = extract(args, kwargs, result)
            return result

        return wrapper

    def install(self, package) -> None:
        """Wrap every public function defined in each layer module."""
        for layer in LAYERS:
            module = getattr(package, layer)
            for attr, obj in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != module.__name__):
                    continue
                self._saved.append((module, attr, obj))
                setattr(module, attr, self._wrap(f"{layer}.{attr}", obj))

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._saved):
            setattr(module, attr, obj)
        self._saved.clear()

    def __len__(self) -> int:
        return len(self.start)

    def write(self, path) -> None:
        """Write all spans as one JSON document."""
        spans = [[self.names[self.name_id[i]], self.start[i], self.end[i],
                  self.parent[i], self.info[i]] for i in range(len(self))]
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "info"],
                       "spans": spans}, fh)

    def stats(self) -> dict:
        """Per-function call counts, total and self seconds, and info sums.

        Self time is a span's duration less the durations of its direct
        children; a layer's self time is the sum over its functions.
        """
        n = len(self)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                   "info": 0.0, "by_info": defaultdict(
                                       lambda: [0, 0.0])})
        for i in range(n):
            name = self.names[self.name_id[i]]
            dur = self.end[i] - self.start[i]
            rec = out[name]
            rec["calls"] += 1
            rec["total_s"] += dur
            rec["self_s"] += dur - child[i]
            rec["info"] += self.info[i]
            bucket = rec["by_info"][self.info[i]]
            bucket[0] += 1
            bucket[1] += dur
        return out
