"""Suite machinery: check dispatch, catalogs, determinism, survey, probe."""

from __future__ import annotations

import argparse
import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from verba.errors import PreconditionFailed, UnknownCheckId, UnknownSpec, VerbaError
from verba.harness import (
    CHECK_ID_SET,
    CHECKS,
    CheckSpec,
    DEFAULT_CATALOG,
    PROBE_WORDS,
    default_tuple_specs,
    parse_tuple_spec,
    pcg64_picks,
    resolve_group,
    resolve_word,
    run_check,
    run_suite,
    survey,
)
from verba import cli, groups, harness, verbal
from verba.groups import evaluate
from verba.verbal import (
    class_generating_subset,
    comm_congruence_sweep,
    extended_width_sweep,
    star_membership_sweep,
    value_set,
    width_sweep,
)
from verba.words import enumerate_extended, gamma, is_outer_commutator, render, variables

from .oracles import element_order

SMALL_CATALOG = ["cyc:6", "sym:3", "quat:8"]


def test_series_parameter_is_r_or_floor_log2_of_the_arity():
    floor_log2 = {1: 1, 2: 1, 3: 1, 4: 2, 5: 2, 7: 2, 8: 3, 64: 6}
    for arity, k in floor_log2.items():
        assert harness.series_parameter("gamma", arity) == arity
        assert harness.series_parameter("delta", arity) == k
    for k in range(1, 7):
        assert harness.series_parameter("delta", harness.series_variables("delta", k)) == k


def test_check_table_is_exhaustive():
    parser = argparse.ArgumentParser()
    cli._add_arguments(parser, "check")
    choices = next(a.choices for a in parser._actions if a.dest == "check_id")
    assert len(CHECKS) == 16
    assert list(CHECKS) == list(CHECK_ID_SET) == list(choices)
    suite_ids = [r.check_id for r in run_suite(["sym:3"]).rows]
    assert list(dict.fromkeys(suite_ids)) == list(CHECKS)


def test_check_id_set_is_the_sixteen_default_ids_in_suite_order():
    """The default suite CSV and the benchmark's suite digest run these
    ids; a new check id must not join them unnoticed."""
    assert CHECK_ID_SET == (
        "L2.1", "L2.2", "L2.3", "L2.5", "L2.6", "L2.8", "T2.10", "T2.11-bound",
        "C2.12", "C2.13", "L3.2", "T3.6", "T3.7-bound", "C3.8", "C3.9", "CONJ",
    )


def test_unknown_check_id():
    with pytest.raises(UnknownCheckId):
        run_check(CheckSpec("L9.9", "sym:3", "gamma:2", "G,G"))


def test_resolve_word_forms():
    tree, label = resolve_word("gamma:3")
    assert is_outer_commutator(tree) and label == "gamma:3"
    tree, label = resolve_word("[x1,x2]")
    assert is_outer_commutator(tree) and label == "[x1,x2]"
    word, label = resolve_word("x1^2")
    assert label == "x1^2"


def test_parse_tuple_spec_variants(sym4):
    tup = parse_tuple_spec("G,derived,center", sym4)
    assert [sub.order for sub in tup.subgroups] == [24, 12, 1]
    assert tup.generators == tup.subgroups
    assert tup.labels == ("G", "derived", "center")
    assert parse_tuple_spec("ncl(1)", sym4).subgroups[0].order == 24
    with pytest.raises(UnknownSpec):
        parse_tuple_spec("wat", sym4)
    with pytest.raises(UnknownSpec):
        parse_tuple_spec("", sym4)


def test_parse_tuple_spec_quat_derived_center(quat8):
    tup = parse_tuple_spec("derived,center", quat8)
    assert [sub.order for sub in tup.subgroups] == [2, 2]
    assert tup.subgroups[0] == tup.subgroups[1]


def test_parse_tuple_spec_ncl_three_cycle(sym4):
    idx = next(i for i in range(24) if element_order(i, sym4.mul, 0) == 3)
    tup = parse_tuple_spec(f"ncl({idx})", sym4)
    assert tup.subgroups[0].order == 12


def test_parse_tuple_spec_set_entry():
    c8 = resolve_group("cyc:8")
    tup = parse_tuple_spec("set:(0,2,4,6);n=2", c8)
    assert tup.subgroups[0].order == 4 and tup.generators[0].order == 4
    tup = parse_tuple_spec("set:(0,2,6);n=4", c8)
    assert tup.subgroups[0].order == 4 and tup.generators[0].order == 3
    spaced = parse_tuple_spec("set:( 0, 2 ,6 );n=4", c8)  # spaces around an index are allowed
    assert (spaced.subgroups, spaced.generators) == (tup.subgroups, tup.generators)


def test_default_tuple_specs_deterministic(sym4):
    a = default_tuple_specs(sym4, 2, seed=0)
    b = default_tuple_specs(sym4, 2, seed=0)
    assert a == b
    assert a[0] == "G,G"
    assert any(s.startswith("ncl(") for s in a)
    c = default_tuple_specs(sym4, 2, seed=1)
    assert c[0] == "G,G"  # fixed part independent of the seed


def test_default_tuple_specs_dedupe():
    c6 = resolve_group("cyc:6")
    specs = default_tuple_specs(c6, 2, seed=0)
    # abelian: center == G, so the center tuple collapses into the G tuple
    assert "center,center" not in specs


def _numpy_picks(entropy: list[int], order: int, r: int) -> list[int]:
    """The ncl(...) picks as `default_tuple_specs` first drew them."""
    rng = np.random.default_rng(entropy)
    return [int(rng.integers(1, order)) for _ in range(r)]


PERM_GROUPS = [str(p) for p in sorted((Path(__file__).resolve().parent / "groups").glob("*.perm"))]


def test_pcg64_picks_are_numpys_default_rng_stream():
    """`pcg64_picks` gives the picks of `np.random.default_rng([seed, |G|,
    *label bytes]).integers(1, |G|)`, the draw the suite's ncl(...) entries
    came from.  This records where the picks come from; what pins them is
    the goldens: the seed-0 suite CSV digest, criterion 8, the gap catalog
    and the survey.  Every pick lies in 1..|G|-1."""
    for spec in [*DEFAULT_CATALOG, *PERM_GROUPS]:
        G = resolve_group(spec)
        if G.order < 2:  # cyc:1: default_tuple_specs draws no ncl(...) entry
            continue
        for seed in (0, 1, 42, 2**32, 2**64 + 5, 10**60):
            entropy = [seed, G.order, *G.label.encode()]
            for r in range(1, 5):
                picks = pcg64_picks(entropy, G.order, r)
                assert picks == _numpy_picks(entropy, G.order, r), (spec, seed, r)
                assert all(1 <= p < G.order for p in picks)


def test_pcg64_picks_at_order_2_draw_nothing_and_give_1():
    for seed in (0, 7, 2**70):
        rng = np.random.default_rng([seed, 2, *b"cyc:2"])
        before = rng.bit_generator.state
        assert [int(rng.integers(1, 2)) for _ in range(3)] == [1, 1, 1]
        assert rng.bit_generator.state == before  # numpy draws nothing here
        assert pcg64_picks([seed, 2, *b"cyc:2"], 2, 3) == [1, 1, 1]


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**200),
    order=st.integers(2, 5040),
    label=st.one_of(st.text(), st.sampled_from([*PERM_GROUPS, "tests/groups/gap_catalog.txt", "ℤ/2 × ✓"])),
    r=st.integers(1, 4),
)
def test_pcg64_picks_match_numpy_on_any_seed_order_and_label(seed, order, label, r):
    entropy = [seed, order, *label.encode()]
    picks = pcg64_picks(entropy, order, r)
    assert picks == _numpy_picks(entropy, order, r)
    assert all(1 <= p < order for p in picks)


def test_run_check_vacuous_trivial_group():
    res = run_check(CheckSpec("T3.6", "cyc:1", "delta:1", "G,G"))
    assert res.status == "pass"


def test_run_check_alt4_tuple(sym4):
    res = run_check(CheckSpec("T2.10", "sym:4", "gamma:2", "derived,derived"))
    assert res.status == "pass"


def test_run_check_l23_transpositions():
    res = run_check(CheckSpec("L2.3", "sym:3", "gamma:2", "G,G"))
    assert res.status == "pass" and "3" in res.detail


def test_run_suite_empty_catalog():
    report = run_suite([], ids=list(CHECK_ID_SET))
    assert report.rows == [] and report.all_pass


def test_run_suite_small_catalog_all_ids():
    report = run_suite(SMALL_CATALOG, seed=0)
    assert report.rows and report.all_pass, [r for r in report.failures][:3]


def test_run_suite_deterministic_across_runs():
    one = run_suite(SMALL_CATALOG, seed=0)
    two = run_suite(SMALL_CATALOG, seed=0)
    as_json = lambda rep: json.dumps([r.as_dict() for r in rep.rows])
    assert as_json(one) == as_json(two)


def test_run_suite_seed_changes_ncl_rows_only():
    one = run_suite(["sym:3"], ids=["L2.1"], seed=0)
    two = run_suite(["sym:3"], ids=["L2.1"], seed=99)
    fixed = [r.tuple_spec for r in one.rows if "ncl" not in r.tuple_spec]
    fixed2 = [r.tuple_spec for r in two.rows if "ncl" not in r.tuple_spec]
    assert fixed == fixed2


def test_survey_rows_quat_sym3():
    rows = survey(["quat:8", "sym:3"], "gamma:2", seed=0)
    full = {(r.group, r.tuple_spec): r for r in rows}
    q = full[("quat:8", "G,G")]
    assert (q.m, q.verbal_order) == (2, 2)
    s = full[("sym:3", "G,G")]
    assert (s.m, s.verbal_order) == (3, 3)
    assert [r.m for r in rows] == sorted(r.m for r in rows)


def test_survey_sanity_invariants():
    rows = survey(SMALL_CATALOG, "gamma:2", seed=0)
    for row in rows:
        assert row.mode == "exhaustive"
        G = resolve_group(row.group)
        assert G.order % row.verbal_order == 0
        tup = parse_tuple_spec(row.tuple_spec, G)
        vs = value_set(gamma(2), tup.subgroups)
        assert vs.size == row.m
        assert row.verbal_order >= 1


def test_negative_seed_is_rejected_before_any_group_is_built():
    # an unknown group spec would raise UnknownSpec once groups are built
    for run in (run_suite, lambda catalog, seed: survey(catalog, "gamma:2", seed=seed)):
        with pytest.raises(VerbaError, match="seed must be at least 0"):
            run(["nosuch:7"], seed=-1)


def test_survey_trivial_group_row():
    rows = survey(["cyc:1"], "gamma:2", seed=0)
    assert rows[0].m == 1 and rows[0].verbal_order == 1


def test_probe_words():
    rows = survey(["sym:4"], "[[x1,x2],x3,x4]", seed=0, probe=True)
    assert rows and all(r.mode == "exhaustive" for r in rows)
    full = {r.tuple_spec: r for r in rows}
    assert full["G,G,G,G"].verbal_order == 12


def test_probe_seven_leaf_word_small_groups():
    rows = survey(["sym:3"], "[[x1,x2,x3],[[x4,x5],[x6,x7]]]", seed=0, probe=True)
    assert rows
    assert {r.tuple_spec for r in rows if r.mode == "exhaustive"}


def _gap_detail(check_id: str, row) -> tuple[int, int]:
    """(m, |w(N)|) from the `m=... |w(N)|=...` detail of a C2.12 or CONJ row."""
    res = run_check(CheckSpec(check_id, row.group, row.word, row.tuple_spec))
    assert res.status == "pass", res
    m, order = re.fullmatch(r"m=(\d+) \|w\(N\)\|=(\d+)", res.detail).groups()
    return int(m), int(order)


@pytest.mark.parametrize(
    "check_id, word, probe", [("C2.12", "gamma:2", False)] + [("CONJ", w, True) for w in PROBE_WORDS]
)
def test_survey_and_check_rows_share_the_gap(check_id, word, probe):
    """Survey, probe, C2.12 and CONJ read w{N} and w(N) from one computation,
    so on every catalog group and shared tuple their numbers agree."""
    rows = survey(DEFAULT_CATALOG, word, seed=0, probe=probe)
    assert len(rows) == sum(
        len(default_tuple_specs(resolve_group(g), len(variables(resolve_word(word)[0])), 0))
        for g in DEFAULT_CATALOG
    )
    for row in rows:
        assert row.mode == "exhaustive"
        assert _gap_detail(check_id, row) == (row.m, row.verbal_order), row


def test_probe_rejects_eight_leaves():
    with pytest.raises(PreconditionFailed):
        survey(["sym:3"], "delta:3", seed=0, probe=True)


def test_default_catalog_contents():
    assert "sym:4" in DEFAULT_CATALOG and "quat:8" in DEFAULT_CATALOG
    assert "heis:3" in DEFAULT_CATALOG
    assert len(DEFAULT_CATALOG) == 26


# ---------------------------------------------------------------------------
# seeded faults: each lemma sweep, and the suite row built on it, can fail
# ---------------------------------------------------------------------------


def _shrink_star_power(monkeypatch, only=None):
    """Make `verbal.star_power` one step too small, for every subset or for
    the one equal to `only`."""
    real = verbal.star_power

    def star(G, S, n):
        return real(G, S, n - 1 if only is None or S == only else n)

    monkeypatch.setattr(verbal, "star_power", star)
    return real


def test_seeded_small_star_power_flips_l25(monkeypatch):
    spec = CheckSpec("L2.5", "sym:3", "gamma:2", "G,G")
    G = resolve_group("sym:3")
    s = class_generating_subset(G.full_subgroup())
    assert star_membership_sweep(gamma(2), [s, s], None).holds
    assert run_check(spec, G=G).status == "pass"

    real = _shrink_star_power(monkeypatch)
    rep = star_membership_sweep(gamma(2), [s, s], None)
    pos, value, (x, g) = rep.counterexample
    # by brute force, position 1 is the first where a value escapes S^(*1)
    comms = [[G.comm(int(e), h) for e in s.elements for h in range(G.order)]]
    comms.append([G.comm(h, int(e)) for e in s.elements for h in range(G.order)])
    escapes = [not s.mask[c].all() for c in comms]
    assert pos == 1 + escapes.index(True) == 1
    # the witness is an assignment in G with entry 1 in S, at which gamma:2 is the value
    assert s.mask[x] and G.comm(x, g) == value and not real(G, s, 1).mask[value]
    row = run_check(spec, G=G)
    assert row.status == "fail" and row.detail == f"position 1, value {value} from {(x, g)}"


def test_seeded_small_star_power_flips_l26(monkeypatch):
    spec = CheckSpec("L2.6", "sym:3", "gamma:2", "G,G")
    G = resolve_group("sym:3")
    s = class_generating_subset(G.full_subgroup())
    assert width_sweep(gamma(2), [s, s], [(1, 1)], None).holds
    assert run_check(spec, G=G).status == "pass"

    base = value_set(gamma(2), [s, s]).members
    real = _shrink_star_power(monkeypatch, only=base)
    rep = width_sweep(gamma(2), [s, s], [(1, 1)], None)
    _, mvec, value, wit = rep.counterexample
    assert mvec == (1, 1) and G.comm(*wit) == value
    assert not real(G, base, 0).mask[value]
    row = run_check(spec, G=G)
    assert row.status == "fail" and row.detail == f"m=(1, 1), value {value} from {wit}"


def test_seeded_trivial_modulus_flips_l28(monkeypatch):
    spec = CheckSpec("L2.8", "sym:3", "-", "G,G,G")
    G = resolve_group("sym:3")
    full = G.full_subgroup()
    assert comm_congruence_sweep(full, full, full, None).holds
    assert run_check(spec, G=G).status == "pass"

    monkeypatch.setattr(
        verbal, "comm_congruence_modulus", lambda K, L, N, budget=None: K.group.trivial_subgroup()
    )
    rep = comm_congruence_sweep(full, full, full, None)
    y, z, ell, n = rep.counterexample
    x = G.mul(G.mul(y, z), ell)
    assert G.comm(x, n) != G.mul(G.comm(y, n), G.comm(z, n))
    row = run_check(spec, G=G)
    assert row.status == "fail" and row.detail == f"(y,z,l,n)={(y, z, ell, n)}"


def test_seeded_small_star_power_flips_l32(monkeypatch):
    # in sym:4 the commutators of the class subset are not a subgroup, so
    # one step less of their star power is a real loss
    spec = CheckSpec("L3.2", "sym:4", "gamma:2", "G,G")
    G = resolve_group("sym:4")
    s = class_generating_subset(G.full_subgroup())
    ext = enumerate_extended(gamma(2), 1, 2)
    assert extended_width_sweep(ext, gamma(2), [s, s], [(1, 1)], None).holds
    assert run_check(spec, G=G).status == "pass"

    base = value_set(gamma(2), [s, s]).members
    real = _shrink_star_power(monkeypatch, only=base)
    rep = extended_width_sweep(ext, gamma(2), [s, s], [(1, 1)], None)
    v, mvec, value, wit = rep.counterexample
    assert evaluate(v, G, dict(zip(variables(v), wit))) == value
    assert not real(G, base, 1).mask[value]
    row = run_check(spec, G=G)
    assert row.status == "fail"
    assert row.detail == f"{render(v)} with m={mvec}: value {value} escapes"


def test_seeded_short_mesh_flips_c212_and_c38(monkeypatch):
    # a set product that drops the class of its greatest element: the
    # direct enumeration, which never meshes, sees the lost class
    specs = [CheckSpec("C2.12", "sym:4", "gamma:2", "G,G"), CheckSpec("C3.8", "sym:4", "delta:2", "G,G,G,G")]
    assert [run_check(spec).status for spec in specs] == ["pass", "pass"]
    real = groups._set_product

    def short(G, op, A, B):
        out = real(G, op, A, B)
        return groups.interned(G, out.mask & ~G.class_union(out.elements[-1:]))

    monkeypatch.setattr(groups, "_set_product", short)
    for spec in specs:
        row = run_check(spec)
        assert row.status == "fail" and row.detail == "factorised and direct value sets differ"


def test_seeded_non_generating_class_subset_flips_l23_and_t211(monkeypatch):
    # class subsets that generate only the derived subgroup A4 of S4: L2.3
    # sees the smaller verbal subgroup, and the bound row the subset check
    def rows():
        report = run_suite(["sym:4"], ids=["L2.3", "T2.11-bound"])
        return {r.check_id: r for r in report.rows if (r.word, r.tuple_spec) == ("gamma:2", "G,G")}

    assert [r.status for r in rows().values()] == ["pass", "pass"]
    real = harness.class_generating_subset
    monkeypatch.setattr(
        harness, "class_generating_subset", lambda N: real(N.group.derived_subgroup())
    )
    seen = rows()
    assert seen["L2.3"].status == "fail" and seen["L2.3"].detail == "|<w{S}>|=4 |<w{N}>|=12"
    assert seen["T2.11-bound"].status == "fail"
    assert "entry 1: generating subset does not generate the subgroup" in seen["T2.11-bound"].detail


# ---------------------------------------------------------------------------
# tuple entries go to the word's variables, whatever the tree order
# ---------------------------------------------------------------------------

# [[x3,x1],x2] has its leaves in the order x3, x1, x2; entry i of a tuple
# goes to variables(w)[i], so "G,derived,center" puts G at x1, derived at x2
# and center at x3.
SHUFFLED = "[[x3,x1],x2]"


def _by_variable(word, tspec, G):
    return dict(zip(variables(word), parse_tuple_spec(tspec, G).subgroups))


@pytest.mark.parametrize("group", ["sym:3", "sym:4", "dih:4", "alt:4"])
@pytest.mark.parametrize("tspec", ["G,derived,center", "G,derived,G", "derived,G,G", "G,G,derived"])
def test_verbal_orders_follow_the_variables(group, tspec):
    G = resolve_group(group)
    word = resolve_word(SHUFFLED)[0]
    env = _by_variable(word, tspec, G)
    want = verbal.verbal_subgroup(word, [env[v] for v in variables(word)]).order
    for check_id in ("L2.1", "C2.12", "CONJ"):
        row = run_check(CheckSpec(check_id, group, SHUFFLED, tspec), G=G)
        assert row.status == "pass", (check_id, row.detail)
        assert f"|w(N)|={want} " in row.detail + " ", (check_id, row.detail)


@pytest.mark.parametrize("group", ["sym:3", "sym:4", "dih:4"])
@pytest.mark.parametrize(
    "word_text,tspec", [("[x2,x1]", "G,derived"), (SHUFFLED, "G,derived,G"), (SHUFFLED, "derived,G,center")]
)
def test_split_sides_take_their_own_subgroups(group, word_text, tspec):
    G = resolve_group(group)
    word = resolve_word(word_text)[0]
    env = _by_variable(word, tspec, G)
    sides = [
        verbal.verbal_subgroup(side, [env[v] for v in variables(side)]).order
        for side in (word.left, word.right)
    ]
    row = run_check(CheckSpec("L2.1", group, word_text, tspec), G=G)
    assert row.status == "pass"
    assert row.detail.endswith(f"|[alpha,beta]|={sides[0]}x{sides[1]}")


def test_split_detail_on_sym3():
    row = run_check(CheckSpec("L2.1", "sym:3", "[x2,x1]", "G,derived"))
    assert row.detail == "|w(N)|=3 |[alpha,beta]|=3x6"


@pytest.mark.parametrize("check_id", ["L2.2", "C2.13", "C3.9", "L2.5", "L2.6", "L3.2"])
@pytest.mark.parametrize("group", ["sym:3", "alt:4", "dih:4"])
def test_shuffled_leaves_pass(check_id, group):
    row = run_check(CheckSpec(check_id, group, SHUFFLED, "G,G,G"))
    assert row.status == "pass", row.detail


def test_power_word_failure_shows_both_orders(monkeypatch):
    def unequal(w, args, G, budget=None):
        return verbal.SubstitutionReport(False, 4, 1)

    monkeypatch.setattr(harness, "check_substitution", unequal)
    for check_id in ("C2.13", "C3.9"):
        row = run_check(CheckSpec(check_id, "alt:4", SHUFFLED, "G,G,G"))
        assert row.status == "fail"
        assert row.detail == "exponents (2, 3, 2), orders 4 != 1"
