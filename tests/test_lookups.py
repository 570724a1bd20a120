"""Lookups that replace recomputation: the commutator table and the memos for
class subsets, extended words, gamma/delta trees, parsed tuple specs, star
powers, built series, substitution reports and interned value sets and
their operand-pair meshes, each against a fresh computation."""

from __future__ import annotations

import gc
import threading
import weakref
from pathlib import Path

import numpy as np
import pytest

import verba.groups as groups_mod
import verba.harness as harness
import verba.series as series_mod
import verba.verbal as verbal
from verba.cli import main
from verba.errors import (
    BadIndex,
    BudgetExceeded,
    InternalInvariantViolation,
    NotNormal,
    UnknownSpec,
)
from verba.groups import (
    COMM_TABLE_LIMIT,
    Subset,
    builtin_group,
    closure,
    evaluate,
    normal_closure,
    star_power,
)
from verba.harness import (
    DEFAULT_CATALOG,
    CheckSpec,
    build_suite_specs,
    parse_tuple_spec,
    run_check,
    run_suite,
)
from verba.series import build_delta_series, build_gamma_series
from verba.verbal import check_substitution, class_generating_subset, value_set
from verba.words import (
    EXTENDED_CACHE_SIZE,
    WORD_CACHE_SIZE,
    Power,
    delta,
    enumerate_extended,
    gamma,
    parse_word,
    variables,
)


def _formula(G, a, b):
    """[a,b] = a^-1 b^-1 a b straight from the multiplication table."""
    t, inv = G.table, G.inverse_table
    return t[t[t[inv[a], inv[b]], a], b]


def _assert_table_matches(G):
    n = G.order
    idx = np.arange(n, dtype=np.int32)
    # broadcast mesh over every pair
    mesh = G.comm_arr(idx[:, None], idx[None, :])
    assert mesh.shape == (n, n)
    assert np.array_equal(mesh, _formula(G, idx[:, None], idx[None, :]))
    # element-wise arrays of equal shape
    a = np.repeat(idx, n).astype(np.int64)
    b = np.tile(idx, n).astype(np.int64)
    assert np.array_equal(G.comm_arr(a, b), _formula(G, a, b))
    # 0-d scalars, as `evaluate` passes them
    for x in range(min(n, 6)):
        for y in range(min(n, 6)):
            got = G.comm_arr(np.asarray(x), np.asarray(y))
            assert np.ndim(got) == 0 and int(got) == int(_formula(G, x, y))
            assert G.comm(x, y) == int(got)


def test_comm_table_matches_the_formula_on_the_catalog():
    for spec in DEFAULT_CATALOG:
        G = builtin_group(spec)
        _assert_table_matches(G)
        ct = G._memo[("comm_table", None)]
        assert ct is not None and ct.shape == (G.order, G.order)
        assert not ct.flags.writeable


def test_comm_table_matches_the_formula_on_every_suite_quotient():
    specs, groups = build_suite_specs(DEFAULT_CATALOG, ["T2.10", "T3.6"], seed=0)
    for spec in specs:
        assert run_check(spec, G=groups[spec.group]).status == "pass"
    hits = [
        (G, hit)
        for G in groups.values()
        for (kind, _), hit in G._memo.items()
        if kind == "quotient"
    ]
    quotients = {id(Q): Q for G, (_, Q) in hits if Q is not G}
    assert len(quotients) >= 10
    # the linearity sweeps built tables on the quotients they multiplied in
    assert any(("comm_table", None) in Q._memo for Q in quotients.values())
    for Q in quotients.values():
        _assert_table_matches(Q)


def test_no_comm_table_above_the_limit():
    G = builtin_group("sym:6")
    assert G.order > COMM_TABLE_LIMIT
    rng = np.random.default_rng(0)
    a = rng.integers(0, G.order, 500)
    b = rng.integers(0, G.order, 500)
    assert np.array_equal(G.comm_arr(a, b), _formula(G, a, b))
    a2, b2 = a[:20, None], b[None, :20]
    assert np.array_equal(G.comm_arr(a2, b2), _formula(G, a2, b2))
    x, y = int(a[0]), int(b[0])
    assert int(G.comm_arr(np.asarray(x), np.asarray(y))) == int(_formula(G, x, y))
    assert evaluate(parse_word("[x1,x2]"), G, {parse_word("x1"): x, parse_word("x2"): y}) == int(
        _formula(G, x, y)
    )
    assert ("comm_table", None) not in G._memo


def test_concurrent_first_use_sees_a_whole_table():
    G = builtin_group("alt:5")
    idx = np.arange(G.order, dtype=np.int32)
    want = _formula(G, idx[:, None], idx[None, :])
    results = []

    def use():
        results.append(G.comm_arr(idx[:, None], idx[None, :]))

    threads = [threading.Thread(target=use) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(results) == 4 and all(np.array_equal(r, want) for r in results)


def test_a_corrupted_comm_table_entry_flips_a_suite_row():
    spec = CheckSpec("T2.10", "sym:4", "gamma:2", "derived,derived")
    assert run_check(spec, G=builtin_group("sym:4")).status == "pass"
    G = builtin_group("sym:4")  # a private copy: its table is not shared
    ct = G._commutator_table().copy()
    assert ct[3, 7] != 23
    ct[3, 7] = 23
    ct.setflags(write=False)
    G._memo[("comm_table", None)] = ct
    assert run_check(spec, G=G).status == "fail"


def test_extended_words_are_shared_between_equal_trees():
    assert enumerate_extended.cache_info().maxsize == EXTENDED_CACHE_SIZE
    for build in (lambda: gamma(2), lambda: delta(2)):
        first = enumerate_extended(build(), 1, 2)
        again = enumerate_extended(build(), 1, 2)
        assert again is first
        assert enumerate_extended.__wrapped__(build(), 1, 2) == first
    with pytest.raises(ValueError):
        enumerate_extended(gamma(2), -1, 2)
    with pytest.raises(ValueError):
        enumerate_extended(gamma(2), -1, 2)


def test_gamma_and_delta_trees_are_shared():
    for build, params in ((gamma, range(1, 6)), (delta, range(0, 4))):
        assert build.cache_info().maxsize == WORD_CACHE_SIZE
        for n in params:
            assert build(n) is build(n)
            assert build.__wrapped__(n) == build(n)
        for _ in range(2):
            with pytest.raises(ValueError):
                build(-1)


def _star_power_by_sets(G, S, n):
    """Products of at most n factors from S, its inverses and 1, with sets."""
    base = {0} | {int(s) for s in S.elements} | {int(G.inverse_table[s]) for s in S.elements}
    cur = {0}
    for _ in range(n):
        cur = {int(G.table[a, b]) for a in cur for b in base}
    return cur


def test_star_power_memo_matches_a_fresh_group():
    G, cold = builtin_group("sym:4"), builtin_group("sym:4")
    subsets = [G.subset([1]), G.subset([3, 7])]
    subsets += [class_generating_subset(N) for N in (G.full_subgroup(), G.derived_subgroup())]
    for S in subsets:
        for n in range(5):
            first = star_power(G, S, n)
            # an equal subset held by a different object hits the memo
            assert star_power(G, Subset(G, S.mask), n) is first
            fresh = star_power(cold, Subset(cold, S.mask), n)
            assert fresh is not first and fresh.key == first.key
            assert set(map(int, first.elements)) == _star_power_by_sets(G, S, n)
    for _ in range(2):
        with pytest.raises(ValueError):
            star_power(G, subsets[0], -1)


def test_bound_rows_reuse_the_series_with_their_class_subsets(monkeypatch):
    G, cold = builtin_group("sym:4"), builtin_group("sym:4")
    seen, bound_sets = [], []
    real_verify, real_bound = harness.verify_series, harness.generator_bound_report

    def spy_verify(series, budget=None):
        seen.append(series)
        return real_verify(series, budget=budget)

    def spy_bound(series, sets, budget=None):
        seen.append(series)
        bound_sets.append(sets)
        return real_bound(series, sets, budget)

    monkeypatch.setattr(harness, "verify_series", spy_verify)
    monkeypatch.setattr(harness, "generator_bound_report", spy_bound)
    cases = (
        ("T2.10", "T2.11-bound", "gamma:3", "G,derived,G", build_gamma_series),
        ("T3.6", "T3.7-bound", "delta:1", "G,G", lambda T: build_delta_series(T, 1)),
    )
    for series_id, bound_id, word, tspec, build in cases:
        seen.clear()
        bound_sets.clear()
        assert run_check(CheckSpec(series_id, "sym:4", word, tspec), G=G).status == "pass"
        assert run_check(CheckSpec(bound_id, "sym:4", word, tspec), G=G).status == "pass"
        built, reused = seen
        assert reused is built
        # the bound row passes class generating subsets, not the subgroups
        [sets] = bound_sets
        assert [closure(G, s) for s in sets] == list(built.base)
        assert [s.key for s in sets] != [n.key for n in built.base]
        fresh = build(parse_tuple_spec(tspec, cold).subgroups)
        assert [t.key for t in fresh.terms] == [t.key for t in built.terms]


def _fail_the_audit(monkeypatch):
    """Make every containment of the gamma-series audit fail."""
    real_require = series_mod._require

    def audit_fails(cond, message):
        real_require(cond and "escapes P_" not in message, message)

    monkeypatch.setattr(series_mod, "_require", audit_fails)


def test_a_failed_audit_stores_no_series(monkeypatch):
    G = builtin_group("sym:4")  # cold: no series built yet
    spec = CheckSpec("T2.10", "sym:4", "gamma:3", "G,G,G")
    builds = []
    real_build = series_mod._build_gamma

    def counting_build(T, budget):
        builds.append(T)
        return real_build(T, budget)

    monkeypatch.setattr(series_mod, "_build_gamma", counting_build)
    _fail_the_audit(monkeypatch)
    for calls in (1, 2, 3):
        with pytest.raises(InternalInvariantViolation, match="escapes P_"):
            run_check(spec, G=G)
        assert len(builds) == calls  # nothing came from the memo
    assert not any(kind == "series" for kind, _ in G._memo)


def test_the_audit_covers_plain_cli_calls_and_large_groups(monkeypatch, capsys):
    _fail_the_audit(monkeypatch)
    assert main(["series", "gamma", "--group", "sym:4", "--r", "3"]) == 1
    assert capsys.readouterr().err.startswith("internal invariant violated: ")
    rows = run_suite([str(GROUP_DIR / "gap512.perm")], ids=["T2.10"]).rows
    for row in rows:
        expected = "pass" if row.word == "gamma:1" else "fail"
        assert row.status == expected, row
    assert sum(row.word == "gamma:2" for row in rows) == 5


def test_class_generating_subset_memo_matches_a_fresh_computation():
    G = builtin_group("dih:4")  # cold: no memo entries yet
    assert not any(kind == "class_subset" for kind, _ in G._memo)
    # dih:4 has three normal subgroups of order 4, so a memo keyed by
    # anything coarser than the subgroup would mix them up
    subgroups = [G.full_subgroup(), G.derived_subgroup(), G.center(), G.trivial_subgroup()]
    subgroups += [normal_closure(G, [g]) for g in range(1, G.order)]
    first = [class_generating_subset(N) for N in subgroups]
    for N, subset in zip(subgroups, first):
        # an equal subgroup held by a different object hits the memo
        assert class_generating_subset(Subset(G, N.mask)) is subset
    for N, subset in zip(subgroups, first):
        del G._memo[("class_subset", N.key)]
        fresh = class_generating_subset(N)
        assert fresh is not subset
        assert fresh.key == subset.key
        assert closure(G, fresh) == N


def test_value_set_memo_keeps_one_member_subset_per_value_set():
    G = builtin_group("dih:8")
    full, derived = G.full_subgroup(), G.derived_subgroup()
    for w in (gamma(2), gamma(3), delta(2), parse_word("x1^2*[x2,x1]^-1"), parse_word("x1*x2*x1")):
        value_set(w, [full, derived, full, derived][: len(variables(w))])
    hits = [hit for (kind, _), hit in G._memo.items() if kind == "value_set"]
    assert hits and all(isinstance(hit, Subset) and hit.group is G for hit in hits)
    # the memo keeps no word alive: a view carries its caller's word
    dropped = parse_word("[x1^3,x2*x3]")
    ref = weakref.ref(dropped)
    assert value_set(dropped, [full] * 3).word is dropped
    del dropped
    gc.collect()
    assert ref() is None
    # equal-text words over equal subsets: two views, one members Subset
    a, b = parse_word("[[x1,x2],x3]"), gamma(3)
    va = value_set(a, [full, derived, full])
    vb = value_set(b, [G.full_subgroup(), Subset(G, derived.mask), full])
    assert va is not vb and va.word is a and vb.word is b
    assert va.members is vb.members
    assert va.values is va.members.elements and va.size == va.members.order


# the value-set engine against its raw sweep, over every kind of tuple entry
VS_GROUPS = ("dih:8", "sym:4", "cyc:3 x quat:8", "sym:5", "gap512.perm")
VS_WORDS = ("gamma:2", "gamma:3", "delta:2", "[x1^2,x2]", "x1*x2*x1", "x1^2*[x2,x1]^-1", "[[x1,y1],x2]", "[[y1,x1],x2]")
GROUP_DIR = Path(__file__).parent / "groups"
RAW_CAP = 200_000  # nominal tuples of each raw cross-check, to keep the test quick
VS_KINDS = ("value_set", "set", "combine")


def _entry_pool(G):
    """Normal subgroups, star powers and class generating subsets of G."""
    normals = [G.full_subgroup(), G.derived_subgroup(), G.center(), normal_closure(G, [G.order - 1])]
    classes = [class_generating_subset(N) for N in normals]
    stars = [star_power(G, S, 2) for S in classes]
    return normals + stars + classes


@pytest.mark.parametrize("spec", VS_GROUPS)
def test_value_sets_match_the_raw_sweep_with_one_subset_per_set(spec):
    G = harness.resolve_group(str(GROUP_DIR / spec) if spec.endswith(".perm") else spec)
    pool = _entry_pool(G)
    for text in VS_WORDS:
        w = harness.resolve_word(text)[0]
        vars_ = variables(w)
        tuples = [[S] * len(vars_) for S in pool]
        tuples += [[pool[(i + j) % len(pool)] for j in range(len(vars_))] for i in range(len(pool))]
        checked = 0
        for tup in tuples:
            if np.prod([S.order for S in tup], dtype=float) > RAW_CAP:
                continue
            raw = verbal.enumerate_values(w, dict(zip(vars_, tup)), None)
            assert np.array_equal(value_set(w, tup).values, raw), (spec, text)
            checked += 1
        assert checked, (spec, text)
    by_mask: dict[bytes, set[int]] = {}
    for hit in [hit for (kind, _), hit in G._memo.items() if kind in VS_KINDS]:
        assert isinstance(hit, Subset) and hit.group is G
        by_mask.setdefault(hit.key, set()).add(id(hit))
    assert all(len(ids) == 1 for ids in by_mask.values())
    assert {key for (kind, key) in G._memo if kind == "set"} == set(by_mask)


def test_a_word_whose_children_have_known_sets_meshes_nothing(monkeypatch):
    G = builtin_group("sym:4")
    full = G.full_subgroup()
    calls = []  # builds of a set product, that is misses of its memo
    real = groups_mod._set_product
    monkeypatch.setattr(groups_mod, "_set_product", lambda *args: calls.append(1) or real(*args))
    first = value_set(gamma(3), [full] * 3)
    assert len(calls) == 2
    # [x1,x2]^-1 is a new text with the set of [x1,x2]: the outer node's
    # operand pair is the one gamma(3) meshed
    second = value_set(parse_word("[[x1,x2]^-1,x3]"), [full] * 3)
    assert len(calls) == 2
    assert second.members is first.members
    # a product over a pair that was commutated is meshed afresh
    assert value_set(parse_word("x1*x2"), [full] * 2).size == 24
    assert len(calls) == 3


def _value_set_kinds(G):
    return {(kind, key) for (kind, key) in G._memo if kind in VS_KINDS}


def test_a_combine_memo_hit_is_charged_the_full_mesh():
    G, fresh = builtin_group("sym:4"), builtin_group("sym:4")
    value_set(gamma(2), [G.full_subgroup()] * 2)
    assert ("combine", (G.comm_arr, G.full_subgroup().key, G.full_subgroup().key)) in G._memo
    before = _value_set_kinds(G)
    swapped = parse_word("[x2,x1]")  # a new text over the pair gamma(2) meshed
    with pytest.raises(BudgetExceeded) as hit:
        value_set(swapped, [G.full_subgroup()] * 2, budget=24 * 24 - 1)
    with pytest.raises(BudgetExceeded) as miss:
        value_set(swapped, [fresh.full_subgroup()] * 2, budget=24 * 24 - 1)
    assert str(hit.value) == str(miss.value) and "value-set combination" in str(hit.value)
    assert _value_set_kinds(G) == before
    assert value_set(swapped, [G.full_subgroup()] * 2, budget=24 * 24).size == 12


def test_a_value_set_build_that_raises_stores_nothing():
    G = builtin_group("sym:4")
    full, derived = G.full_subgroup(), G.derived_subgroup()
    value_set(gamma(2), [full, derived])  # x1 over G and x2 over A4 are memoised
    before = _value_set_kinds(G)
    for word, tup, budget in [
        ("[x2,x1]", [full, derived], 12 * 24 - 1),  # a new pair, refused before its mesh
        ("x1*x2*x1", [full, derived], 24 * 12 - 1),  # a raw sweep
    ]:
        with pytest.raises(BudgetExceeded):
            value_set(parse_word(word), tup, budget=budget)
        assert _value_set_kinds(G) == before


def test_parsed_tuple_memo_per_group():
    G, H = builtin_group("sym:4"), builtin_group("sym:4")
    text = "G,derived,center,ncl(7),set:(0,3,4,8,11,12,15,19,20);n=2"
    tup = parse_tuple_spec(text, G)
    assert parse_tuple_spec(text, G) is tup
    other = parse_tuple_spec(text, H)
    assert other is not tup
    assert all(s.group is H for s in other.subgroups + other.generators)
    del G._memo[("tuple_spec", text)]
    fresh = parse_tuple_spec(text, G)
    assert fresh is not tup and fresh.labels == tup.labels
    assert [s.key for s in fresh.subgroups] == [s.key for s in tup.subgroups]
    assert [s.key for s in fresh.generators] == [s.key for s in tup.generators]


@pytest.mark.parametrize(
    "text, error",
    [("G,bogus", UnknownSpec), ("ncl(99)", BadIndex), ("set:(1);n=2", NotNormal)],
)
def test_malformed_tuple_specs_raise_on_every_call(text, error):
    G = builtin_group("sym:4")
    for _ in range(2):
        with pytest.raises(error):
            parse_tuple_spec(text, G)
    assert ("tuple_spec", text) not in G._memo


def _powers(w, exps):
    return [Power(v, e) for v, e in zip(variables(w), exps)]


def test_substitution_report_memo_matches_a_fresh_group():
    G, cold = builtin_group("sym:4"), builtin_group("sym:4")
    for w, exps in ((gamma(2), (2, 3)), (gamma(3), (3, 2, 2)), (delta(2), (2, 3, 2, 3))):
        first = check_substitution(w, _powers(w, exps), G)
        assert check_substitution(w, _powers(w, exps), G) is first
        fresh = check_substitution(w, _powers(w, exps), cold)
        assert fresh is not first and fresh == first
    # delta:1 and gamma:2 are one word, so they share one report
    assert check_substitution(delta(1), _powers(delta(1), (2, 3)), G) is check_substitution(
        parse_word("[x1,x2]"), _powers(gamma(2), (2, 3)), G
    )


def test_a_substitution_over_budget_stores_nothing():
    G = builtin_group("sym:4")
    args = _powers(gamma(3), (2, 2, 2))
    for _ in range(2):
        with pytest.raises(BudgetExceeded):
            check_substitution(gamma(3), args, G, budget=10)
    assert not any(kind == "substitution" for kind, _ in G._memo)
    assert check_substitution(gamma(3), args, G).equal


def test_power_word_rows_after_l22_equal_the_rows_run_alone():
    catalog = ["sym:4", "dih:4", "quat:8", "cyc:2 x sym:3"]
    shared = run_suite(catalog, ids=["L2.2", "C2.13", "C3.9"]).rows
    alone = [
        run_check(CheckSpec(r.check_id, r.group, r.word, r.tuple_spec), G=builtin_group(r.group))
        for r in shared
        if r.check_id != "L2.2"
    ]
    assert len(alone) > 20
    assert alone == [r for r in shared if r.check_id != "L2.2"]


def test_a_dropped_substitution_flips_l22_and_the_power_word_rows(monkeypatch):
    """With the u_i dropped from w(u1,...,ur) the direct side is w(G); on a
    fresh group the L2.2 row fails, and the C2.13 and C3.9 rows read the
    failing report it stored."""
    monkeypatch.setattr(verbal, "substitute", lambda w, mapping: w)
    G = builtin_group("quat:8")
    row = run_check(CheckSpec("L2.2", "quat:8", "gamma:2", "G,G"), G=G)
    assert row.status == "fail" and row.detail == "exponents (2, 2): 2 != 1"
    assert any(kind == "substitution" for kind, _ in G._memo)
    for check_id, word in (("C2.13", "gamma:2"), ("C3.9", "delta:1")):
        row = run_check(CheckSpec(check_id, "quat:8", word, "G,G"), G=G)
        assert row.status == "fail" and row.detail == "exponents (2, 3), orders 2 != 1"
