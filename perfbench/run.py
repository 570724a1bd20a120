#!/usr/bin/env python3
"""Run one workload of the verba benchmark and print its metrics.

    python3 perfbench/run.py --workload suite --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table

With ``--trace 0`` the run prints the end-to-end metrics, measured with
tracing off.  With ``--trace 1`` it runs the workload once untraced and once
traced, prints the per-layer metrics and the tracing overhead (traced minus
untraced ``wall_s``), and writes the spans under ``perfbench/out/``.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.

verba is imported from this checkout's ``src/``; a checkout without it makes
the run fail before it prints a result.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path[:0] = [str(SRC), str(ROOT)]

from perfbench.workloads import DEFAULT_SEED, EXPECTED_DIR, WORKLOADS, Raised  # noqa: E402

# Set-up is timed once in this process and again in fresh child processes,
# this many before the first pass and this many after every pass, and the
# median is reported: a single set-up is too short to average out the
# machine's changing speed, and spreading the samples over the run lets them
# see the same speeds as the passes: 13 samples a 30-second suite run, 16 a
# queries run (its passes are short and many, so one probe a gap is enough).
# A frontier set-up builds sym:7 and takes seconds, so it is sampled three
# times in all to keep a run short.
SETUP_PROBES_PER_GAP = {"suite": 3, "frontier": 1, "queries": 1}
# Seconds one pass takes on the 2-vCPU host the benchmark was defined on.  A
# run makes ceil(--seconds / this) passes, a count fixed before it starts, so
# the same seed and --seconds give the same items, and the same `attempted`
# and `failed`, on a fast machine and a slow one; the run measures about
# --seconds on that host.
NOMINAL_PASS_S = {"suite": 12.3, "frontier": 40.0, "queries": 2.25}
CHILD_TIMEOUT_S = 170
RUN_SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_p95_ms": "ms",
    "decided_frac": "ratio",
    "correct_frac": "ratio",
    "peak_rss_mb": "MB",
}


def import_verba() -> None:
    import verba
    import verba.cli  # noqa: F401
    import verba.harness  # noqa: F401

    origin = Path(verba.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SystemExit(f"verba was imported from {origin}, not from {SRC}")


def timed_setup(workload, seed: int):
    """Import verba and build what the workload needs before its first item."""
    t0 = time.perf_counter()
    import_verba()
    state = workload.prepare(seed)
    return time.perf_counter() - t0, state


def child(args: list[str]) -> dict:
    """Run this script in a fresh process and return its last-line JSON."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(args)} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


@dataclass
class Pass:
    wall: float
    latencies: list[float]
    results: list


def run_pass(workload, state) -> Pass:
    """Every item of one pass, serially; an item's exception never ends the pass."""
    results, latencies = [], []
    clock = time.perf_counter
    first = clock()
    for item in state.items:
        t = clock()
        try:
            res = workload.run(state, item)
        except Exception as exc:
            res = Raised(type(exc).__name__, str(exc))
        latencies.append(clock() - t)
        results.append(res)
    return Pass(clock() - first, latencies, results)


class Gate:
    """Outcomes of every judged pass, and what they add up to."""

    def __init__(self):
        self.outcomes = []
        self.problems: list[str] = []

    def add(self, workload, state, results) -> None:
        outcomes, problems = workload.judge(state, results)
        self.outcomes += outcomes
        self.problems += problems

    @property
    def errors(self):
        return [o for o in self.outcomes if o.error]

    @property
    def correct(self) -> bool:
        return not self.problems and all(o.known_defect for o in self.errors)

    def report(self, out) -> None:
        for p in self.problems:
            print(f"PROBLEM: {p}", file=out)
        unexpected = [o for o in self.errors if not o.known_defect]
        for o in unexpected[:20]:
            print(f"ERROR: {o.error}", file=out)
        known: dict[str, int] = {}
        for o in self.errors:
            if o.known_defect:
                known[o.known_defect] = known.get(o.known_defect, 0) + 1
        for defect, n in sorted(known.items()):
            print(f"known defect, {n} items: {defect}", file=out)

    def result(self, metrics: dict[str, tuple[float, str]]) -> dict:
        return {
            "correct": self.correct,
            "attempted": len(self.outcomes),
            "failed": len(self.errors),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }


def p95(values: list[float]) -> float:
    return statistics.quantiles(values, n=20, method="inclusive")[18]


def setup_probes(workload, seed: int, count: int) -> list[float]:
    args = ["--setup-probe", "--workload", workload.name, "--seed", str(seed)]
    return [child(args)["setup_s"] for _ in range(count)]


def pass_count(workload, seconds: int) -> int:
    return max(1, math.ceil(seconds / NOMINAL_PASS_S[workload.name]))


def end_to_end(workload, seed: int, seconds: int) -> dict:
    per_gap = SETUP_PROBES_PER_GAP[workload.name]
    setups = setup_probes(workload, seed, per_gap)
    setup_s, state = timed_setup(workload, seed)
    setups.append(setup_s)
    gate, passes = Gate(), []
    for n in range(pass_count(workload, seconds)):
        if n:
            state = workload.prepare(seed)
        passes.append(run_pass(workload, state))
        gate.add(workload, state, passes[-1].results)
        passes[-1].results = None
        state = None  # free the last pass's groups before building fresh ones
        setups += setup_probes(workload, seed, per_gap)
    latencies = [x for p in passes for x in p.latencies]
    attempted = len(gate.outcomes)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p.wall for p in passes),
        "items_per_s": statistics.median(len(p.latencies) / p.wall for p in passes),
        "item_p50_ms": statistics.median(latencies) * 1e3,
        "item_p95_ms": p95(latencies) * 1e3,
        "decided_frac": sum(o.decided for o in gate.outcomes) / attempted,
        "correct_frac": 1 - len(gate.errors) / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    gate.report(sys.stderr)
    return gate.result({k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()})


def per_layer(workload, seed: int) -> dict:
    from perfbench.trace import Tracer

    gate = Gate()
    _, state = timed_setup(workload, seed)
    plain = run_pass(workload, state)
    gate.add(workload, state, plain.results)
    state = None
    tracer = Tracer()
    with tracer:
        state = workload.prepare(seed)
        traced = run_pass(workload, state)
    gate.add(workload, state, traced.results)
    state = None
    metrics = tracer.layer_metrics()
    metrics["trace.overhead_s"] = (traced.wall - plain.wall, "s")
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"{workload.name}-seed{seed}")
    gate.report(sys.stderr)
    return gate.result(metrics)


def record_expected(workload) -> None:
    """Write the default seed's output digests to perfbench/expected/."""
    if not hasattr(workload, "record"):
        raise SystemExit(f"{workload.name} has no recorded outputs")
    path = EXPECTED_DIR / f"{workload.name}_seed{DEFAULT_SEED}.json"
    if path.exists():
        raise SystemExit(f"{path} exists; remove it first to record it again")
    _, state = timed_setup(workload, DEFAULT_SEED)
    results = run_pass(workload, state).results
    outcomes, _ = workload.judge(state, [*results])
    bad = [o.error for o in outcomes if o.error and not o.known_defect]
    if bad:
        raise SystemExit("refusing to record outputs with errors:\n" + "\n".join(bad[:20]))
    path.write_text(json.dumps(workload.record(state, results), indent=0) + "\n", encoding="utf-8")
    print(f"wrote {path}")


def print_table(name: str, result: dict) -> None:
    for metric, m in result["metrics"].items():
        print(f"{name:<9} {metric:<36} {m['value']:>16.6g} {m['unit']}")
    print(f"{name:<9} correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=RUN_SECONDS,
                    help="measure about this long, in a number of whole passes fixed by it")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--record-expected", action="store_true",
                    help="record the default seed's outputs as the expected ones")
    args = ap.parse_args(argv)

    if args.workload == "all":
        combined = {}
        for name in WORKLOADS:
            combined[name] = child(["--workload", name, "--seed", str(args.seed),
                                    "--seconds", str(args.seconds), "--trace", str(args.trace)])
            print_table(name, combined[name])
        print(json.dumps(combined))
        return 0 if all(r["correct"] for r in combined.values()) else 1

    workload = WORKLOADS[args.workload]
    if args.setup_probe:
        setup_s, _ = timed_setup(workload, args.seed)
        print(json.dumps({"setup_s": setup_s}))
        return 0
    if args.record_expected:
        record_expected(workload)
        return 0
    result = per_layer(workload, args.seed) if args.trace else end_to_end(workload, args.seed, args.seconds)
    print_table(workload.name, result)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
