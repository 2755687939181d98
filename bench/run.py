"""Benchmark driver for rqcgraph.

    python3 bench/run.py --workload engine-dense --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout.  Workloads and metric names come from
``BENCHMARK.json``.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  With ``--trace 0`` the metrics
are the end-to-end ones, with ``--trace 1`` the per-layer ones.  The lines
before it hold the run manifest and every timing's median, high percentile
and sample count, both in reference seconds (see probe.py), which the
metrics use, and in raw seconds.

A traced run measures untraced passes for half its time and traced passes
(spans.py) for the other half; the spans go to .bench_out/spans-<workload>.npz.

Everything runs in one process, on one thread: BLAS is pinned to one thread
and the oracle gets ``workers=1``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = "rqcgraph"
SETUP_REPEATS = 5
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_environment() -> None:
    """One BLAS thread and one oracle worker; must run before numpy is imported."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ["RQCGRAPH_WORKERS"] = "1"


def fresh_import(layers) -> SimpleNamespace:
    """Import the package from SRC anew, as a fresh process would."""
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    return load(layers)


def load(layers) -> SimpleNamespace:
    """The package and its layer modules, imported from SRC."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    pkg = importlib.import_module(PACKAGE)
    if Path(pkg.__file__).resolve().parent != SRC / PACKAGE:
        raise ImportError(f"{PACKAGE} was imported from {pkg.__file__}, not from {SRC}")
    mods = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in layers}
    return SimpleNamespace(pkg=pkg, **mods)


def summarize(values: list[float]) -> dict:
    """Median, sample count, and the highest percentile with ten samples beyond it."""
    xs = sorted(values)
    n = len(xs)
    out = {"n": n, "median": statistics.median(xs)}
    if n >= 11:
        out["high_pct"] = round(100.0 * (n - 10) / n, 1)
        out["high"] = xs[n - 11]
    return out


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def manifest(rq, np, args) -> dict:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "package_version": rq.pkg.__version__,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": {var: os.environ[var] for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "workers": 1,
        "trace": bool(args.trace),
    }


@dataclass
class Pass:
    timings: dict[str, float]  # reference seconds (see probe.py)
    raw: dict[str, float]  # seconds as measured
    scale: float  # reference seconds per raw second during this pass
    checks: list
    tracer: object = None


def measure(wl, probe, seconds: float, spans=None) -> list[Pass]:
    """Run whole passes until `seconds` have elapsed (at least one pass).

    With `spans` given, each pass runs under a fresh Tracer, which is
    removed again before the next pass starts.
    """
    passes = []
    deadline = perf_counter() + seconds
    while not passes or perf_counter() < deadline:
        tracer = None
        if spans is not None:
            tracer = spans.Tracer()
            tracer.install(PACKAGE)
        try:
            with probe:
                raw, checks = wl.run(probe.clock)
        finally:
            if tracer is not None:
                tracer.restore()
        scale = probe.scale()
        passes.append(Pass({k: v * scale for k, v in raw.items()}, raw, scale, checks, tracer))
    return passes


def medians(passes: list[Pass]) -> dict[str, float]:
    return {k: statistics.median(p.timings[k] for p in passes) for k in passes[0].timings}


def layer_metric(name: str, totals: dict, counters: dict) -> float:
    """One per-layer metric of a traced pass, from span totals and counters."""
    if name in counters:
        return counters[name]
    if name == "swapengine.term_updates_per_s":
        edge_s = totals.get("swapengine.apply_edge", (0, 0.0, 0.0))[1]
        return counters["swapengine.terms_in"] / edge_s if edge_s else 0.0
    base, _, field = name.rpartition(".")
    if field == "calls":
        return totals.get(base, (0,))[0]
    if field == "self_s":
        return sum(t[2] for n, t in totals.items() if n == base or n.startswith(base + "."))
    raise KeyError(f"no rule computes per-layer metric {name!r}")


def per_layer(spec: dict, wl, workloads, untraced, traced) -> dict[str, float]:
    values = dict.fromkeys(workloads.DERIVED, 0.0)
    if hasattr(wl, "derived"):
        values.update(wl.derived(medians(untraced)))
    values["trace.overhead_frac"] = medians(traced)["wall_s"] / medians(untraced)["wall_s"] - 1.0
    per_pass = [(p.tracer.totals(), p.tracer.counters) for p in traced]
    for m in spec["per_layer"]:
        if m["name"] not in values:
            got = [layer_metric(m["name"], totals, counters) for totals, counters in per_pass]
            # counts stay whole numbers: they repeat exactly from pass to pass
            pick = statistics.median_low if all(isinstance(v, int) for v in got) else statistics.median
            values[m["name"]] = pick(got)
    return values


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    pin_environment()
    import numpy as np

    import probe
    import spans
    import workloads

    setup_raw = []
    try:
        for _ in range(SETUP_REPEATS):
            t0 = perf_counter()
            rq = fresh_import(spans.LAYERS)
            wl = workloads.WORKLOADS[args.workload](rq, args.seed)
            wl.warm_up()
            setup_raw.append(perf_counter() - t0)
    except ImportError as exc:
        print(f"error: cannot import {PACKAGE} from {SRC}: {exc}", file=sys.stderr)
        return 2

    speed = probe.SpeedProbe()
    if args.trace:
        untraced = measure(wl, speed, args.seconds / 2)
        traced = measure(wl, speed, args.seconds / 2, spans)
        os.makedirs(workloads.OUT_DIR, exist_ok=True)
        spans.save(os.path.join(workloads.OUT_DIR, f"spans-{args.workload}.npz"),
                   [p.tracer for p in traced])
    else:
        untraced, traced = measure(wl, speed, args.seconds), []
    setup_scale = statistics.median(p.scale for p in untraced)
    setup_s = [s * setup_scale for s in setup_raw]
    if args.trace:
        values = per_layer(spec, wl, workloads, untraced, traced)
        reported = spec["per_layer"]
    else:
        values = {
            "setup_s": statistics.median(setup_s),
            "wall_s": medians(untraced)["wall_s"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        reported = spec["end_to_end"]

    checks = [c for p in untraced + traced for c in p.checks]
    failed = [c for c in checks if not c.ok]
    for c in failed:
        print(f"FAILED {c.name}: {c.detail}", file=sys.stderr)
    timings = {"setup_s": summarize(setup_s), "raw.setup_s": summarize(setup_raw)}
    for label, passes in (("", untraced), ("traced.", traced)):
        for key in passes[0].timings if passes else ():
            timings[label + key] = summarize([p.timings[key] for p in passes])
            timings["raw." + label + key] = summarize([p.raw[key] for p in passes])
    print(json.dumps({"manifest": manifest(rq, np, args)}))
    print(json.dumps({"timings": timings}))
    result = {
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in reported},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
