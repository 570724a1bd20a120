"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run `pytest tests/test_acceptance.py -v` for the full gate; the summary block
at the end of the pytest output lists one line per criterion.
"""

from __future__ import annotations

import io
import json
import sys
import time

from verba.cli import main as cli_main
from verba.groups import builtin_group, commutator_subgroup
from verba.harness import DEFAULT_CATALOG, resolve_group, run_suite, default_tuple_specs, parse_tuple_spec
from verba.series import build_delta_series, build_gamma_series, generator_bound_report, delta_series_length
from verba.verbal import check_substitution, verbal_subgroup
from verba.words import Power, delta, gamma, render, variables

from .conftest import record_acceptance
from .oracles import pinned_verbal_orders

BUDGET = 10**8
LEMMA_IDS = ["L2.1", "L2.2", "L2.3", "L2.5", "L2.6", "L2.8"]


def _full_tuple(G, r):
    return [G.full_subgroup()] * r


def _passfail(ok: bool) -> str:
    return "PASS" if ok else "FAIL"


def test_criterion_1_structural_constants():
    start = time.time()
    ok = True
    for k, expected in ((1, 2), (2, 5), (3, 11)):
        G = builtin_group("quat:8")
        series = build_delta_series(_full_tuple(G, 2**k), k, BUDGET)
        ok &= len(series.factors) == expected == delta_series_length(k)
    for r in range(1, 5):
        G = builtin_group("quat:8")
        series = build_gamma_series(_full_tuple(G, r), BUDGET)
        top = verbal_subgroup(gamma(r), [G.full_subgroup()] * r, BUDGET)
        ok &= len(series.factors) == r
        ok &= series.top == top
        ok &= series.bottom == commutator_subgroup(top, top)
    elapsed = time.time() - start
    ok &= elapsed < 1.0
    record_acceptance(
        f"{_passfail(ok)} criterion 1: series lengths t=2,5,11 (k=1,2,3) and "
        f"gamma chains r=1..4 with endpoints, built in {elapsed:.2f}s"
    )
    assert ok


def test_criterion_2_lemma_suite_exhaustive():
    start = time.time()
    report = run_suite(DEFAULT_CATALOG, ids=LEMMA_IDS, seed=0, budget=BUDGET)
    elapsed = time.time() - start
    words = {r.word for r in report.rows if r.word != "-"}
    ok = (
        bool(report.rows)
        and all(r.status == "pass" for r in report.rows)
        and words == {"gamma:2", "gamma:3", "delta:2"}
        and elapsed < 600
    )
    record_acceptance(
        f"{_passfail(ok)} criterion 2: lemma suite {LEMMA_IDS} over "
        f"{len(DEFAULT_CATALOG)} groups: {len(report.rows)} exhaustive checks, "
        f"{len(report.failures)} failures, {elapsed:.1f}s"
    )
    assert ok, report.failures[:5]


def test_criterion_3_gamma_series_linearity():
    catalog = [spec for spec in DEFAULT_CATALOG if resolve_group(spec).order <= 48]
    report = run_suite(catalog, ids=["T2.10"], seed=0, budget=BUDGET)
    ok = bool(report.rows) and all(r.status == "pass" for r in report.rows)
    record_acceptance(
        f"{_passfail(ok)} criterion 3: gamma-series linearity exhaustive on "
        f"{len(catalog)} groups (order <= 48), {len(report.rows)} series, "
        f"{len(report.failures)} counterexamples"
    )
    assert ok, report.failures[:5]


def test_criterion_4_delta_series_verification():
    start = time.time()
    report = run_suite(DEFAULT_CATALOG, ids=["T3.6"], seed=0, budget=BUDGET)
    elapsed = time.time() - start
    k1_groups = {r.group for r in report.rows if r.word == "delta:1"}
    k2_groups = {r.group for r in report.rows if r.word == "delta:2"}
    expect_k2 = {s for s in DEFAULT_CATALOG if resolve_group(s).order <= 24}
    ok = (
        all(r.status == "pass" for r in report.rows)
        and k1_groups == set(DEFAULT_CATALOG)
        and k2_groups == expect_k2
        and elapsed < 900
    )
    record_acceptance(
        f"{_passfail(ok)} criterion 4: delta-series verification, k=1 on "
        f"{len(k1_groups)} groups and k=2 on {len(k2_groups)} groups of order <= 24, "
        f"{len(report.failures)} counterexamples, {elapsed:.1f}s"
    )
    assert ok, report.failures[:5]


def test_criterion_5_substitution_corollaries():
    groups = [s for s in DEFAULT_CATALOG if resolve_group(s).order <= 24]
    words = [gamma(2), gamma(3), delta(2)]
    checked, ok = 0, True
    first_bad = None
    for spec in groups:
        G = resolve_group(spec)
        for tree in words:
            leaves = variables(tree)
            for combo in range(2 ** len(leaves)):
                exps = [(2, 3)[(combo >> i) & 1] for i in range(len(leaves))]
                args = [Power(v, e) for v, e in zip(leaves, exps)]
                rep = check_substitution(tree, args, G, BUDGET)
                checked += 1
                if not rep.equal and first_bad is None:
                    ok = False
                    first_bad = (spec, render(tree), exps)
    record_acceptance(
        f"{_passfail(ok)} criterion 5: substitution identity w(u1,...,ur)(G) = "
        f"w(u1(G),...,ur(G)) for u_i in {{x^2,x^3}}, {checked} instances on "
        f"{len(groups)} groups" + (f"; first failure {first_bad}" if first_bad else "")
    )
    assert ok, first_bad


def test_criterion_6_generator_count_bound():
    rows_checked, ok = 0, True
    first_bad = None
    for spec in DEFAULT_CATALOG:
        G = resolve_group(spec)
        for r in (1, 2, 3):
            for tspec in default_tuple_specs(G, r, seed=0):
                # each subgroup serves as its own generating subset
                subgroups = parse_tuple_spec(tspec, G).subgroups
                series = build_gamma_series(subgroups, BUDGET)
                report = generator_bound_report(series, subgroups, BUDGET)
                rows_checked += len(report.rows)
                if not report.all_ok and first_bad is None:
                    ok = False
                    first_bad = (spec, r, tspec)
    record_acceptance(
        f"{_passfail(ok)} criterion 6: factor generating sets within m^(2^(r-1)) "
        f"on {rows_checked} survey factors (r <= 3), zero violations"
    )
    assert ok, first_bad


def test_criterion_7_pinned_values():
    golden = json.load(open("tests/golden/pinned_verbal_orders.json"))
    oracle = pinned_verbal_orders()
    computed = {}
    for spec in ("quat:8", "sym:3", "sym:4", "alt:4"):
        G = resolve_group(spec)
        computed[spec] = verbal_subgroup(gamma(2), [G.full_subgroup()] * 2, BUDGET).order
    s4 = resolve_group("sym:4")
    computed["delta2 sym:4"] = verbal_subgroup(delta(2), [s4.full_subgroup()] * 4, BUDGET).order
    ok = golden == oracle == computed
    record_acceptance(
        f"{_passfail(ok)} criterion 7: pinned verbal orders {computed} match the "
        f"committed golden file and the independent oracle"
    )
    assert ok, (golden, oracle, computed)


def _run_suite_csv(args):
    buf = io.StringIO()
    old = sys.stdout
    sys.stdout = buf
    try:
        code = cli_main(args)
    finally:
        sys.stdout = old
    return code, buf.getvalue()


def test_criterion_8_determinism(tmp_path):
    catalog = tmp_path / "catalog.txt"
    catalog.write_text("cyc:6\nsym:3\nquat:8\ndih:4\n")
    base = ["suite", "--catalog", str(catalog), "--seed", "42", "--format", "csv"]
    runs = [_run_suite_csv(base), _run_suite_csv(base)]
    codes = {code for code, _ in runs}
    outputs = {out for _, out in runs}
    # the committed report of an earlier version: a speedup may not change a byte
    with open("tests/golden/suite_criterion8_seed42.csv", "r", encoding="utf-8", newline="") as fh:
        golden = fh.read()
    ok = codes == {0} and outputs == {golden}
    record_acceptance(
        f"{_passfail(ok)} criterion 8: suite reports byte-identical across repeat "
        f"runs and to the committed golden ({len(runs[0][1].splitlines())} lines)"
    )
    assert ok
