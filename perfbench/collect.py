#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 perfbench/collect.py --workloads suite,frontier,queries --seeds 0-9 \\
        --trace-seed 0 --out perfbench/results/baseline.json

Each run is a fresh ``run.py`` process, one after another.  For every
end-to-end metric the summary gives the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, which is
the distance between the quartiles as a share of the median, next to the
metric's bound from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT)]

from perfbench.run import child  # noqa: E402


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summarise(runs: list[dict], bounds: dict[str, float]) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, 0, median)
        out[name] = {
            "unit": runs[0]["metrics"][name]["unit"],
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median if median else float("nan"),
            "bound": bounds.get(name),
        }
    return out


def machine() -> dict:
    import numpy

    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"cpu": model, "cores": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "system": platform.system()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default="suite,frontier,queries")
    ap.add_argument("--seeds", default="0-9")
    ap.add_argument("--seconds", type=int, default=None, help="default: run_seconds from BENCHMARK.json")
    ap.add_argument("--trace-seed", type=int, default=None, help="also make one traced run at this seed")
    ap.add_argument("--out", default=None, help="write the runs and summaries here as JSON")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = args.seconds or spec["run_seconds"]
    report: dict = {"machine": machine(), "seconds": seconds, "workloads": {}}
    for name in args.workloads.split(","):
        runs = []
        for seed in seed_list(args.seeds):
            res = child(["--workload", name, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"])
            runs.append({"seed": seed, **res})
            print(f"{name} seed {seed}: correct={res['correct']} attempted={res['attempted']} "
                  f"failed={res['failed']}", flush=True)
        entry = {"runs": runs, "summary": summarise(runs, bounds)}
        if args.trace_seed is not None:
            entry["traced"] = child(["--workload", name, "--seed", str(args.trace_seed), "--trace", "1"])
        report["workloads"][name] = entry
        for metric, s in entry["summary"].items():
            flag = "" if s["bound"] is None or s["spread"] < s["bound"] / 3 else "  <-- spread >= bound/3"
            print(f"{name:<9} {metric:<14} median {s['median']:>12.5g} {s['unit']:<6} "
                  f"spread {s['spread']:.4f} bound {s['bound']}{flag}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
