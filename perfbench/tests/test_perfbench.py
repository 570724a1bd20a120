"""Tests of the benchmark itself: inputs, metric names, gates, tracer.

Run with ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import re
from collections import Counter
import sys
from pathlib import Path

import pytest

from perfbench import workloads
from perfbench.run import END_TO_END_UNITS
from perfbench.trace import TARGETS, TRACED_MARK, Tracer, covered, self_times
from perfbench.workloads import (
    DEFAULT_SEED,
    FRONTIER,
    KNOWN_DEFECTS,
    MALFORMED_EACH,
    MALFORMED_KINDS,
    QUERIES_EACH,
    QUERY_KINDS,
    CliResult,
    Frontier,
    Queries,
    Raised,
    State,
    Suite,
    generate_queries,
)

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9_.-]+")


# -- inputs --------------------------------------------------------------------


def test_query_stream_is_deterministic_per_seed():
    assert generate_queries(3) == generate_queries(3)
    assert generate_queries(3) != generate_queries(4)


def test_query_composition_does_not_depend_on_the_seed():
    def kinds(seed):
        return sorted(q.kind for q in generate_queries(seed))

    assert kinds(0) == kinds(7)
    counts = Counter(kinds(0))
    assert {counts[k] for k in QUERY_KINDS} == {QUERIES_EACH}
    assert {counts[k] for k in MALFORMED_KINDS} == {MALFORMED_EACH}
    assert sum(counts.values()) == len(QUERY_KINDS) * QUERIES_EACH + len(MALFORMED_KINDS) * MALFORMED_EACH


def test_known_defect_share_does_not_depend_on_the_seed():
    def defects(seed):
        return sum(
            q.kind == "assign-not-numeric" or q.argv[-2:] == ("--r", "0")
            for q in generate_queries(seed)
        )

    assert {defects(s) for s in range(10)} == {defects(0)}


def test_pass_count_is_fixed_by_the_seconds_alone():
    from perfbench.run import pass_count

    assert pass_count(Queries(), 20) == 9
    assert pass_count(Suite(), 20) == 2
    assert pass_count(Frontier(), 20) == pass_count(Suite(), 1) == 1


def test_suite_specs_are_deterministic_per_seed():
    first, again = Suite().prepare(1).items, Suite().prepare(1).items
    assert first == again
    assert len(first) > 3000


def test_frontier_is_fixed():
    assert Frontier().prepare(0).items == Frontier().prepare(5).items
    assert len(FRONTIER) == 9


# -- metric names ----------------------------------------------------------------


def _benchmark_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_metric_names_are_well_formed():
    layer = set(Tracer().layer_metrics()) | {"trace.overhead_s"}
    for name in [*END_TO_END_UNITS, *layer]:
        assert NAME.fullmatch(name) and len(name) <= 64, name


def test_benchmark_json_lists_exactly_the_reported_metrics():
    spec = _benchmark_json()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    layer = Tracer().layer_metrics()
    layer["trace.overhead_s"] = (0.0, "s")
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {k: u for k, (_, u) in layer.items()}
    # frontier runs and reports like the others but is not listed: on the
    # machine the benchmark was defined on, its timings moved between two
    # ten-seed sets by more than any bound allowed there (see README.md).
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS) - {"frontier"}


# -- correctness gates -------------------------------------------------------------


def _result(spec, status, detail="ok"):
    from verba.harness import CheckResult

    return CheckResult(spec.check_id, spec.group, spec.word, spec.tuple_spec, spec.mode, status, detail)


def test_suite_gate_trips_on_a_failed_verdict():
    from verba.harness import CheckSpec

    specs = [CheckSpec("L2.1", "cyc:2", "gamma:2", "G,G"), CheckSpec("L2.3", "cyc:2", "gamma:2", "G,G")]
    state = State(seed=1, items=specs)
    outcomes, problems = Suite().judge(state, [_result(specs[0], "pass"), _result(specs[1], "fail")])
    assert [o.error is None for o in outcomes] == [True, False]
    assert not problems


def test_suite_gate_trips_on_a_doctored_row(monkeypatch):
    from verba.harness import CheckSpec

    specs = [CheckSpec("L2.1", "cyc:2", "gamma:2", "G,G"), CheckSpec("L2.3", "cyc:2", "gamma:2", "G,G")]
    rows = [_result(s, "pass") for s in specs]
    state = State(seed=DEFAULT_SEED, items=specs)
    recorded = Suite().record(state, rows)
    monkeypatch.setattr(workloads, "load_expected", lambda name: recorded)
    outcomes, problems = Suite().judge(state, rows)
    assert all(o.error is None for o in outcomes) and not problems

    doctored = [rows[0], _result(specs[1], "pass", detail="doctored")]
    outcomes, problems = Suite().judge(state, doctored)
    assert outcomes[0].error is None and outcomes[1].error is not None
    assert problems  # the whole-CSV digest differs too


def test_frontier_gate_trips_on_a_changed_verdict():
    state = Frontier().prepare(0)
    verdicts = [want for *_, want in FRONTIER]
    good = [_result(s, v) for s, v in zip(state.items, verdicts)]
    outcomes, _ = Frontier().judge(state, good)
    assert not any(o.error for o in outcomes)
    assert sum(o.decided for o in outcomes) == 6

    first_pass = verdicts.index("pass")
    doctored = list(good)
    doctored[first_pass] = _result(state.items[first_pass], "skip-budget")
    outcomes, _ = Frontier().judge(state, doctored)
    assert outcomes[first_pass].error is not None

    first_skip = verdicts.index("skip-budget")
    decided_more = list(good)
    decided_more[first_skip] = _result(state.items[first_skip], "pass")
    outcomes, _ = Frontier().judge(state, decided_more)
    assert outcomes[first_skip].error is None and outcomes[first_skip].decided


def test_queries_gate_trips_on_a_wrong_exit_code_or_output():
    wl = Queries()
    state = wl.prepare(DEFAULT_SEED)
    results = [wl.run(state, q) for q in state.items]
    outcomes, problems = wl.judge(state, results)
    assert not problems
    assert all(o.known_defect for o in outcomes if o.error)

    i = next(k for k, q in enumerate(state.items) if q.kind == "values")
    exit_changed = list(results)
    exit_changed[i] = CliResult(1, results[i].stdout, results[i].stderr)
    assert wl.judge(state, exit_changed)[0][i].error is not None

    output_changed = list(results)
    output_changed[i] = CliResult(0, results[i].stdout + "x", results[i].stderr)
    assert wl.judge(state, output_changed)[0][i].error is not None


def test_known_defects_count_as_errors():
    wl = Queries()
    q = next(q for q in generate_queries(0) if q.kind == "assign-not-numeric")
    outcome = wl.judge(State(seed=1, items=[q]), [wl.run(State(seed=1, items=[q]), q)])[0][0]
    assert outcome.error is not None
    assert outcome.known_defect == KNOWN_DEFECTS["assign-not-numeric"][1]
    other = wl.judge(State(seed=1, items=[q]), [Raised("KeyError", "x")])[0][0]
    assert other.error is not None and other.known_defect is None


# -- tracer ----------------------------------------------------------------------


def test_self_time_on_a_synthetic_nested_span():
    #   0 root [0, 100]
    #   1   a  [10, 40]
    #   2     b [15, 25]
    #   3   c  [50, 90]
    #   4 root2 [100, 110]
    parent = [-1, 0, 1, 0, -1]
    start = [0, 10, 15, 50, 100]
    end = [100, 40, 25, 90, 110]
    assert list(self_times(parent, start, end)) == [30, 20, 10, 40, 10]
    assert covered(start, end, [0, 1, 2, 3, 4]) == 110
    assert covered(start, end, [1, 2, 3]) == 70


def _bindings():
    from verba.enumeration import ProductSpace
    from verba.groups import FiniteGroup

    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "verba" or name.startswith("verba."):
            for attr, value in vars(mod).items():
                out[(name, attr)] = value
    for cls in (FiniteGroup, ProductSpace):
        for attr, value in vars(cls).items():
            out[(cls.__name__, attr)] = value
    return out


def test_traced_run_restores_every_original():
    import verba.cli
    from verba import harness

    before = _bindings()
    tracer = Tracer()
    with tracer:
        assert getattr(verba.verbal.closure, TRACED_MARK, False)
        assert getattr(verba.groups.closure, TRACED_MARK, False)
        assert getattr(verba.groups.FiniteGroup.comm_arr, TRACED_MARK, False)
        spec = harness.CheckSpec("T2.10", "sym:3", "gamma:2", "G,G")
        assert harness.run_check(spec).status == "pass"
        with pytest.raises(Exception):
            verba.groups.builtin_group("nope:1")
    after = _bindings()
    assert before.keys() == after.keys()
    assert all(before[k] is after[k] for k in before)
    assert len({t.module + t.attr for t in TARGETS}) == len(TARGETS)

    metrics = tracer.layer_metrics()
    assert metrics["harness.checks.T2.10"][0] == 1
    assert metrics["verbal.linearity_calls"][0] > 0
    assert metrics["groups.closure_calls"][0] >= metrics["groups.closure_distinct_seeds"][0] > 0
    assert metrics["groups.build_s"][0] > 0
    assert not tracer._stack  # the failing build unwound its span
