"""Span tracing of calls into the wavefall layer modules, from outside the program.

Tracer.install() replaces every public function of each layer module (a name
in its defining module's __all__) at every module namespace that binds it:
the defining module itself and each module that imported it, for example
wavefall.interferometry.evolve_split_step and wavefall.splitstep.
boundary_amplitude.  Each call then records a span (name, start, end,
parent).  uninstall() puts the original functions back, so an untraced
iteration runs the unmodified program.

Spans live in flat arrays in memory and are written out once, at the end of
a run.  A layer's self time is the duration of its spans minus the part
covered by their child spans, so the self times of all layers add up to the
duration of the root spans (the wavefall.cli.main calls).
"""

from __future__ import annotations

import functools
import importlib
import time
import types
from array import array
from pathlib import Path

import numpy as np

LAYERS = (
    "cli",
    "config",
    "checks",
    "interferometry",
    "splitstep",
    "analytic",
    "oracle",
    "core",
    "action",
    "relativistic",
)


def _split_steps(args, kwargs) -> int:
    """Strang steps of one evolve_split_step(psi, params, t, config) call."""
    config = args[3] if len(args) > 3 else kwargs["config"]
    return config.n_steps


class Tracer:
    """Records a span for each call into a layer's public functions."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.work = array("q")
        self.start = array("d")
        self.end = array("d")
        self.iterations: list[tuple[int, int]] = []
        self._stack = [-1]
        self._patches: list[tuple[types.ModuleType, str, object]] = []
        self._wrappers: dict[object, object] = {}

    def _wrap(self, fn, name: str):
        self.names.append(name)
        name_id = len(self.names) - 1
        counts_steps = name == "splitstep.evolve_split_step"
        ids, parents, works = self.name_id, self.parent, self.work
        starts, ends, stack = self.start, self.end, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(ids)
            ids.append(name_id)
            parents.append(stack[-1])
            works.append(_split_steps(args, kwargs) if counts_steps else 0)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def install(self) -> None:
        """Wrap each public layer function at every layer module binding it."""
        modules = {layer: importlib.import_module(f"wavefall.{layer}") for layer in LAYERS}
        for module in modules.values():
            for attr, obj in list(vars(module).items()):
                if not isinstance(obj, types.FunctionType):
                    continue
                owner = obj.__module__.rpartition(".")[2]
                if (
                    obj.__module__ != f"wavefall.{owner}"
                    or owner not in modules
                    or obj.__name__ not in modules[owner].__all__
                ):
                    continue
                if obj not in self._wrappers:
                    self._wrappers[obj] = self._wrap(obj, f"{owner}.{obj.__name__}")
                setattr(module, attr, self._wrappers[obj])
                self._patches.append((module, attr, obj))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.iterations.append((len(self.name_id), -1))
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()
        first, _ = self.iterations[-1]
        self.iterations[-1] = (first, len(self.name_id))

    def summarize(self, first: int, stop: int) -> dict[str, float]:
        """Per-layer totals over the spans [first, stop) of one iteration."""
        names = np.array(self.names + ["<root>"])
        layer_of = np.array([n.partition(".")[0] for n in names])
        ids = np.array(self.name_id[first:stop], dtype=np.int32)
        parent = np.array(self.parent[first:stop], dtype=np.int32) - first
        work = np.array(self.work[first:stop], dtype=np.int64)
        dur = np.array(self.end[first:stop]) - np.array(self.start[first:stop])
        is_root = parent < 0
        child = np.bincount(parent[~is_root], weights=dur[~is_root], minlength=len(ids))
        self_time = dur - child
        # Layer of each span's caller; the root spans are called by the benchmark.
        parent_id = np.where(is_root, len(names) - 1, ids[np.where(is_root, 0, parent)])
        caller = layer_of[parent_id]
        layer = layer_of[ids]
        name = names[ids]

        out: dict[str, float] = {"root_s": float(dur[is_root].sum())}
        for lay in LAYERS:
            mine = layer == lay
            out[f"{lay}.self_s"] = float(self_time[mine].sum())
            out[f"{lay}.calls"] = float(np.count_nonzero(mine & (caller != lay)))
        split = name == "splitstep.evolve_split_step"
        out["splitstep.steps"] = float(work[split].sum())
        out["splitstep.inclusive_s"] = float(dur[split].sum())
        guard = (name == "core.boundary_amplitude") & (caller == "splitstep")
        out["splitstep.guard_s"] = float(dur[guard].sum())
        out["core.moments_calls"] = float(np.count_nonzero(name == "core.moments"))
        fits = (name == "core.make_gaussian") & (caller == "interferometry")
        out["interferometry.fit_calls"] = float(np.count_nonzero(fits))
        out["interferometry.scans"] = float(
            np.count_nonzero(name == "interferometry.fringe_scan")
        )
        return out

    def iteration_summaries(self) -> list[dict[str, float]]:
        return [self.summarize(first, stop) for first, stop in self.iterations]

    def write(self, path: Path) -> None:
        """Write every recorded span, with the iteration boundaries."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.array(self.name_id, dtype=np.int32),
            parent=np.array(self.parent, dtype=np.int32),
            work=np.array(self.work, dtype=np.int64),
            start=np.array(self.start),
            end=np.array(self.end),
            iterations=np.array(self.iterations, dtype=np.int64).reshape(-1, 2),
        )


def layer_metrics(summaries: list[dict[str, float]]) -> dict[str, float]:
    """Per-iteration means of the traced totals, as named per-layer metrics."""
    n = len(summaries)
    mean = {key: sum(s[key] for s in summaries) / n for key in summaries[0]}
    steps = mean["splitstep.steps"]
    fits = mean["interferometry.fit_calls"]
    return {
        "splitstep.calls": mean["splitstep.calls"],
        "splitstep.steps": steps,
        "splitstep.self_s": mean["splitstep.self_s"],
        "splitstep.step_us": 1e6 * mean["splitstep.inclusive_s"] / steps if steps else 0.0,
        "splitstep.guard_s": mean["splitstep.guard_s"],
        "oracle.calls": mean["oracle.calls"],
        "oracle.self_s": mean["oracle.self_s"],
        "analytic.calls": mean["analytic.calls"],
        "analytic.self_s": mean["analytic.self_s"],
        "core.calls": mean["core.calls"],
        "core.moments_calls": mean["core.moments_calls"],
        "core.self_s": mean["core.self_s"],
        "interferometry.self_s": mean["interferometry.self_s"],
        "interferometry.fit_calls": fits,
        "interferometry.fit_useful_ratio": mean["interferometry.scans"] / fits if fits else 0.0,
        "checks.self_s": mean["checks.self_s"],
        "action.calls": mean["action.calls"],
        "action.self_s": mean["action.self_s"],
        "relativistic.self_s": mean["relativistic.self_s"],
        "config.load_s": mean["config.self_s"],
        "cli.self_s": mean["cli.self_s"],
    }


def unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_us"):
        return "us"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"
