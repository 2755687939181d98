"""Span recorder for the traced benchmark run.

The package has no tracing of its own, so spans are recorded from outside:
every public function of the layer modules is replaced, in every
``rqcgraph`` module namespace that binds it, by a wrapper that records
(name, start, end, parent).  Spans are kept in flat arrays in memory and
written out once, when the benchmark ends.
"""

from __future__ import annotations

import array
import inspect
import sys
from time import perf_counter

import numpy as np

LAYERS = ("graphs", "moments", "swapengine", "rem", "cem", "oracle", "cli")

# twirl_coefficients is a cached per-term lookup, called up to 3.8 million
# times in one engine-dense pass; a span per call would cost more than the
# call itself and swamp the self time of apply_edge, where that work belongs.
UNTRACED = frozenset({"swapengine.twirl_coefficients"})

COUNTERS = ("swapengine.terms_in", "swapengine.terms.max", "oracle.samples")


def _count_edge(counters: dict, args, kwargs, result) -> None:
    v = args[0] if args else kwargs["v"]
    counters["swapengine.terms_in"] += len(v)
    counters["swapengine.terms.max"] = max(
        counters["swapengine.terms.max"], len(v), len(result)
    )


def _count_mixture(counters: dict, args, kwargs, result) -> None:
    counters["swapengine.terms.max"] = max(counters["swapengine.terms.max"], len(result))


def _count_samples(sig: inspect.Signature):
    def hook(counters: dict, args, kwargs, result) -> None:
        counters["oracle.samples"] += sig.bind(*args, **kwargs).arguments["samples"]

    return hook


class Tracer:
    """Spans of one traced pass, plus the counters taken at the same boundaries."""

    def __init__(self):
        self.names: list[str] = []
        self.name_idx = array.array("q")
        self.parent = array.array("q")
        self.start = array.array("d")
        self.end = array.array("d")
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, hook=None):
        nid = len(self.names)
        self.names.append(name)
        name_idx, parent, start, end = self.name_idx, self.parent, self.start, self.end
        stack, counters = self._stack, self.counters

        def traced(*args, **kwargs):
            i = len(start)
            name_idx.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(counters, args, kwargs, result)
            return result

        return traced

    def install(self, package: str = "rqcgraph") -> None:
        """Wrap each public layer function wherever a package module binds it."""
        wrappers: dict[int, tuple[object, object]] = {}
        for layer in LAYERS:
            mod = sys.modules[f"{package}.{layer}"]
            for attr, obj in vars(mod).items():
                name = f"{layer}.{attr}"
                if (
                    attr.startswith("_")
                    or isinstance(obj, type)
                    or not callable(obj)
                    or getattr(obj, "__module__", None) != mod.__name__
                    or name in UNTRACED
                ):
                    continue
                wrappers[id(obj)] = (obj, self.wrap(name, obj, self._hook(name, obj)))
        for modname, mod in list(sys.modules.items()):
            if modname != package and not modname.startswith(package + "."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])

    def restore(self) -> None:
        """Put every original function object back where install() found it."""
        while self._patched:
            mod, attr, obj = self._patched.pop()
            setattr(mod, attr, obj)

    @staticmethod
    def _hook(name: str, fn):
        if name == "swapengine.apply_edge":
            return _count_edge
        if name == "swapengine.apply_mixture":
            return _count_mixture
        if name == "oracle.estimate_moments":
            return _count_samples(inspect.signature(fn))
        return None

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "names": np.array(self.names),
            "name_idx": np.frombuffer(self.name_idx, dtype=np.int64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, total seconds, self seconds) over this tracer's spans."""
        a = self.arrays()
        return span_totals(a["names"].tolist(), a["name_idx"], a["parent"], a["start"], a["end"])


def span_totals(names, name_idx, parent, start, end) -> dict[str, tuple[int, float, float]]:
    """Calls, total and self time per span name.

    Self time is a span's duration minus the durations of its direct
    children; spans nest strictly (single thread), so children never overlap.
    """
    dur = end - start
    child = np.zeros(len(dur))
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    k = len(names)
    calls = np.bincount(name_idx, minlength=k)
    total = np.bincount(name_idx, weights=dur, minlength=k)
    self_s = np.bincount(name_idx, weights=dur - child, minlength=k)
    return {
        n: (int(calls[i]), float(total[i]), float(self_s[i]))
        for i, n in enumerate(names)
        if calls[i]
    }


def save(path: str, tracers: list[Tracer]) -> None:
    """Write the spans of all traced passes to one .npz, tagged by pass."""
    ids: dict[str, int] = {}
    cols: dict[str, list[np.ndarray]] = {k: [] for k in ("name_idx", "parent", "start", "end", "pass")}
    offset = 0
    for p, tr in enumerate(tracers):
        a = tr.arrays()
        remap = np.array([ids.setdefault(n, len(ids)) for n in tr.names], dtype=np.int64)
        cols["name_idx"].append(remap[a["name_idx"]])
        cols["parent"].append(np.where(a["parent"] >= 0, a["parent"] + offset, -1))
        cols["start"].append(a["start"])
        cols["end"].append(a["end"])
        cols["pass"].append(np.full(len(a["start"]), p, dtype=np.int64))
        offset += len(a["start"])
    np.savez(path, names=np.array(list(ids)), **{k: np.concatenate(v) for k, v in cols.items()})
