"""Held-out seed check: a second seed changes the inputs, not the work.

    python3 bench/heldout.py --workload engine-sparse --seeds 1 2

Runs the benchmark on each seed, traced and untraced, each in its own
process, and compares the two seeds.  Every call count and work counter must
be identical, and wall_s must agree within its bound in BENCHMARK.json.
Exits 1 if either fails.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COUNTS = ("swapengine.terms_in", "swapengine.terms.max", "oracle.samples")


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=600,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} failed operations")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=int, nargs=2, required=True)
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bound = {m["name"]: m["bound"] for m in spec["end_to_end"]}["wall_s"]

    layers = [bench(args.workload, s, spec["run_seconds"], 1) for s in args.seeds]
    e2e = [bench(args.workload, s, spec["run_seconds"], 0) for s in args.seeds]
    counts = [n for n in layers[0] if n.endswith(".calls") or n in COUNTS]
    differ = {n: (layers[0][n], layers[1][n]) for n in counts if layers[0][n] != layers[1][n]}
    walls = (e2e[0]["wall_s"], e2e[1]["wall_s"])
    wall_gap = abs(walls[0] - walls[1]) / min(walls)
    report = {
        "workload": args.workload,
        "seeds": args.seeds,
        "counts_compared": len(counts),
        "counts_differing": differ,
        "wall_s": walls,
        "wall_gap": wall_gap,
        "wall_bound": bound,
    }
    print(json.dumps(report))
    return 0 if not differ and wall_gap <= bound else 1


if __name__ == "__main__":
    sys.exit(main())
