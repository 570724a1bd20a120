"""Linear series: construction, verification, and generator-count bounds."""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest

import verba.series as series_mod
from verba.errors import BadIndex, BudgetExceeded, NotNormal, PreconditionFailed
from verba.groups import Subset, builtin_group, closure, commutator_subgroup
from verba.harness import (
    DEFAULT_CATALOG,
    CheckSpec,
    default_tuple_specs,
    parse_tuple_spec,
    resolve_group,
    run_check,
)
from verba.series import (
    build_delta_series,
    build_gamma_series,
    build_series,
    delta_series_length,
    generator_bound_report,
    verify_series,
)
from verba.verbal import (
    LinearityReport,
    class_generating_subset,
    comm_congruence_sweep,
    extended_width_sweep,
    star_membership_sweep,
    verbal_subgroup,
    width_sweep,
)
from verba.words import gamma, render


def full_normal_tuple(G, r):
    return [G.full_subgroup()] * r


def class_subsets(G, r):
    """A normal subset generating G, for each entry of `full_normal_tuple`."""
    return [class_generating_subset(G.full_subgroup())] * r


# ---------------------------------------------------------------------------
# gamma series
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_gamma_series_structure(r, quat8):
    series = build_gamma_series(full_normal_tuple(quat8, r))
    assert len(series.factors) == r
    assert series.top == verbal_subgroup(gamma(r), [quat8.full_subgroup()] * r)
    assert series.bottom == commutator_subgroup(series.top, series.top)
    for low, high in zip(series.terms, series.terms[1:]):
        assert low <= high


def test_gamma_series_r1_is_abelianization():
    c6 = builtin_group("cyc:6")
    series = build_gamma_series(full_normal_tuple(c6, 1))
    assert series.top.order == 6 and series.bottom.order == 1
    report = verify_series(series)
    assert report.all_ok


def test_gamma_series_quat_chain(quat8):
    series = build_gamma_series(full_normal_tuple(quat8, 2))
    assert [t.order for t in series.terms] == [1, 1, 2]


def test_gamma_series_sym4_r3(sym4):
    series = build_gamma_series(full_normal_tuple(sym4, 3))
    assert series.top.order == 12
    report = verify_series(series)
    assert report.all_ok


def test_gamma_series_factor_annotations(sym3):
    series = build_gamma_series(full_normal_tuple(sym3, 2))
    by_position = {f.linear_position: f for f in series.factors}
    assert set(by_position) == {1, 2}
    # position 2 runs over ([N1,N2]); position 1 over the plain tuple
    assert by_position[2].entries[1].subgroup.order == 3
    assert by_position[1].entries[1].subgroup.order == 6
    report = verify_series(series)
    assert report.all_ok


def test_gamma_last_factor_linearity_always_passes(sym4):
    # the factor linear in the final position is checked modulo the derived
    # subgroup of the top, where multiplicativity is automatic
    for r in (2, 3):
        series = build_gamma_series(full_normal_tuple(sym4, r))
        factor = next(f for f in series.factors if f.linear_position == r)
        report = verify_series(series)
        assert report.factors[factor.index - 1].linearity.holds


def test_gamma_factors_are_abelian_sections(sym4):
    series = build_gamma_series(full_normal_tuple(sym4, 3))
    for f in series.factors:
        assert commutator_subgroup(f.upper, f.upper) <= f.lower


# ---------------------------------------------------------------------------
# delta series
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("k,count", [(1, 2), (2, 5), (3, 11)])
def test_delta_series_length(k, count, quat8):
    series = build_delta_series(full_normal_tuple(quat8, 2**k), k)
    assert len(series.factors) == count == delta_series_length(k)


def test_delta_series_quat_k1(quat8):
    series = build_delta_series(full_normal_tuple(quat8, 2), 1)
    assert [t.order for t in series.terms] == [1, 1, 2]
    assert verify_series(series).all_ok


def test_delta_series_sym4_k2(sym4):
    series = build_delta_series(full_normal_tuple(sym4, 4), 2)
    assert series.top.order == 4 and series.bottom.order == 1
    for low, high in zip(series.terms, series.terms[1:]):
        assert low <= high
    report = verify_series(series)
    assert report.all_ok
    assert all(f.linearity.verdict == "holds" for f in report.factors)


def test_delta_series_words_match_walkthrough(sym4):
    series = build_delta_series(full_normal_tuple(sym4, 4), 2)
    words = [(render(f.word), f.linear_position, f.provenance) for f in series.factors]
    assert words == [
        ("[[x1,x2],[y1,[x3,x4]]]", 5, "delta-top"),
        ("[[x1,x2],[[y1,y2],[x3,x4]]]", 4, "delta-left"),
        ("[[x1,x2],[[y1,y2],[x3,x4]]]", 3, "delta-left"),
        ("[[x1,x2],[x3,x4]]", 2, "delta-right"),
        ("[[x1,x2],[x3,x4]]", 1, "delta-right"),
    ]
    # the tuple of the second factor carries [N3,N4] in the fourth slot
    f2 = series.factors[1]
    assert [e.subgroup.order for e in f2.entries] == [24, 24, 24, 12, 24, 24]
    assert f2.entries[3].components == (3, 4)


def test_delta_series_words_do_not_depend_on_group(sym4):
    d4 = builtin_group("dih:4")
    a = build_delta_series(full_normal_tuple(sym4, 4), 2)
    b = build_delta_series(full_normal_tuple(d4, 4), 2)
    assert [(f.word, f.linear_position, f.degree, f.provenance) for f in a.factors] == [
        (f.word, f.linear_position, f.degree, f.provenance) for f in b.factors
    ]


def test_delta_series_degrees_within_bound(sym4):
    series = build_delta_series(full_normal_tuple(sym4, 4), 2)
    report = verify_series(series)
    for factor, f in zip(series.factors, report.factors):
        assert f.degree_ok and f.recognized_degree is not None
        assert f.recognized_degree <= factor.degree <= 1


def test_delta_factors_are_abelian_sections(sym4):
    series = build_delta_series(full_normal_tuple(sym4, 4), 2)
    for f in series.factors:
        assert commutator_subgroup(f.upper, f.upper) <= f.lower


def test_delta_series_mixed_tuple(sym4):
    tup = [sym4.full_subgroup(), sym4.derived_subgroup(), sym4.full_subgroup(), sym4.derived_subgroup()]
    report = verify_series(build_delta_series(tup, 2))
    assert report.all_ok


def test_delta_series_nontrivial_interior_factor(sym4):
    # (G, G, A, A) moves the jump into the second factor: its section is 4/1
    # and the 6-entry annotation with the bracket in slot 4 must generate it
    a4 = sym4.derived_subgroup()
    tup = [sym4.full_subgroup(), sym4.full_subgroup(), a4, a4]
    series = build_delta_series(tup, 2)
    jumps = [f.index for f in series.factors if f.upper.order > f.lower.order]
    assert jumps == [2]
    f2 = series.factors[1]
    assert f2.provenance == "delta-left" and f2.linear_position == 4
    assert [e.subgroup.order for e in f2.entries] == [24, 24, 12, 4, 24, 24]
    assert verify_series(series).all_ok


# Seeded corruptions of a built series: each must flip its own flag of
# `verify_series`, and with it `all_ok`.


@pytest.fixture(scope="module")
def jump_series(sym4):
    """The (G, G, A, A) delta series on sym:4, whose factor 2 jumps 1 -> 4."""
    a4 = sym4.derived_subgroup()
    return build_delta_series([sym4.full_subgroup(), sym4.full_subgroup(), a4, a4], 2)


def _with_factor(series, i, **changes):
    factors = list(series.factors)
    factors[i] = replace(factors[i], **changes)
    return replace(series, factors=tuple(factors))


def _with_entry(series, i, **changes):
    f = series.factors[i]
    return _with_factor(series, i, entries=(replace(f.entries[0], **changes), *f.entries[1:]))


def test_verify_series_sees_a_wrong_top_term(sym4, jump_series):
    assert verify_series(jump_series).all_ok
    bad = replace(jump_series, terms=(*jump_series.terms[:-1], sym4.full_subgroup()))
    report = verify_series(bad)
    assert not report.endpoints_ok and not report.all_ok
    assert all(f.ok for f in report.factors)


def test_verify_series_sees_a_factor_upside_down(jump_series):
    f = jump_series.factors[1]
    assert f.lower != f.upper
    report = verify_series(_with_factor(jump_series, 1, lower=f.upper, upper=f.lower))
    assert report.endpoints_ok
    assert not report.factors[1].containment_ok and not report.all_ok


def test_verify_series_sees_an_entry_over_another_subgroup(sym4, jump_series):
    # entry x1 of factor 1 ranges over N_1 = G, its base entry
    report = verify_series(_with_entry(jump_series, 0, subgroup=sym4.derived_subgroup()))
    assert report.endpoints_ok and report.factors[0].containment_ok
    assert not report.factors[0].extension_ok and not report.all_ok


def test_verify_series_sees_an_entry_fed_by_another_component(jump_series):
    # x1 read from N_2 = G: the same subgroup as N_1, so only the component
    # check can see it
    report = verify_series(_with_entry(jump_series, 0, components=(2,)))
    assert report.factors[0].generation_ok
    assert not report.factors[0].extension_ok and not report.all_ok


def test_delta_series_trivial_group():
    g1 = builtin_group("cyc:1")
    report = verify_series(build_delta_series(full_normal_tuple(g1, 4), 2))
    assert report.all_ok and len(report.factors) == 5


def test_delta_series_k3_full_verification():
    # deep recursion: 11 factors, extension degrees up to 2, 14-entry tuples
    d4 = builtin_group("dih:4")
    series = build_delta_series(full_normal_tuple(d4, 8), 3)
    report = verify_series(series)
    assert report.all_ok and len(report.factors) == 11
    assert max(f.degree for f in series.factors) == 2
    assert max(len(f.entries) for f in series.factors) == 14


def test_delta_series_arity_check(quat8):
    with pytest.raises(PreconditionFailed):
        build_delta_series(full_normal_tuple(quat8, 3), 2)
    with pytest.raises(PreconditionFailed):
        build_delta_series(full_normal_tuple(quat8, 2), 0)


# ---------------------------------------------------------------------------
# generator bounds
# ---------------------------------------------------------------------------


def test_bounds_trivial_group():
    g1 = builtin_group("cyc:1")
    series = build_gamma_series(full_normal_tuple(g1, 2))
    report = generator_bound_report(series, class_subsets(g1, 2))
    assert report.all_ok and all(r.observed == 1 for r in report.rows)


def test_bounds_quat_gamma2(quat8):
    series = build_gamma_series(full_normal_tuple(quat8, 2))
    report = generator_bound_report(series, class_subsets(quat8, 2))
    assert report.base_values == 2
    assert report.all_ok
    assert all(r.bound == 4 for r in report.rows)


def test_bounds_sym3_gamma3(sym3):
    series = build_gamma_series(full_normal_tuple(sym3, 3))
    report = generator_bound_report(series, class_subsets(sym3, 3))
    assert report.all_ok
    assert all(r.bound == report.base_values ** 4 for r in report.rows)


def test_bounds_delta(sym4):
    series = build_delta_series(full_normal_tuple(sym4, 4), 2)
    report = generator_bound_report(series, class_subsets(sym4, 4))
    assert report.all_ok
    assert all(r.star_depth is not None for r in report.rows)


def test_bounds_require_subsets(quat8):
    # each set must be a normal subset generating its subgroup of the base
    series = build_gamma_series(full_normal_tuple(quat8, 2))
    with pytest.raises(PreconditionFailed):
        generator_bound_report(series, [quat8.trivial_subgroup()] * 2)
    not_normal = quat8.subset([2])  # {i}; i is conjugate to -i
    with pytest.raises(NotNormal):
        generator_bound_report(series, [not_normal] * 2)


# every entry point taking a tuple of normal subsets, called on (G, S)
NORMAL_TUPLE_CALLERS = {
    "build_gamma_series": lambda G, S: build_gamma_series([G, S]),
    "build_delta_series": lambda G, S: build_delta_series([G, S], 1),
    "star_membership_sweep": lambda G, S: star_membership_sweep(gamma(2), [G, S], None),
    "width_sweep": lambda G, S: width_sweep(gamma(2), [G, S], [(1, 1)], None),
    "extended_width_sweep": lambda G, S: extended_width_sweep([gamma(2)], gamma(2), [G, S], [(1, 1)], None),
    "comm_congruence_sweep": lambda G, S: comm_congruence_sweep(G, S, G, None),
    "generator_bound_report": lambda G, S: generator_bound_report(build_gamma_series([G, G]), [G, S]),
}


@pytest.mark.parametrize("caller", NORMAL_TUPLE_CALLERS)
def test_every_normal_tuple_entry_gives_one_error(caller):
    """A non-normal entry raises the one NotNormal, and an entry of
    another group the one BadIndex, whichever entry point takes them."""
    S3 = builtin_group("sym:3")
    full, call = S3.full_subgroup(), NORMAL_TUPLE_CALLERS[caller]
    with pytest.raises(NotNormal, match=r"^subset of sym:3 is not closed under conjugation$"):
        call(full, closure(S3, [2]))  # <(1 2)>
    with pytest.raises(BadIndex, match="^subset belongs to a different group$"):
        call(full, builtin_group("sym:3").full_subgroup())


def test_build_series_is_the_kinds_own_memoised_series(sym4):
    full = sym4.full_subgroup()
    assert build_series("gamma", [full] * 3) is build_gamma_series([full] * 3)
    assert build_series("delta", [full] * 4) is build_delta_series([full] * 4, 2)
    # gamma(2) and delta(1) are one word on [x1,x2], but two series
    two = [build_series(kind, [full] * 2) for kind in ("gamma", "delta")]
    assert [(s.kind, s.parameter) for s in two] == [("gamma", 2), ("delta", 1)]
    assert two[0] is build_gamma_series([full] * 2) and two[1] is build_delta_series([full] * 2, 1)


GROUPS_DIR = Path(__file__).resolve().parent / "groups"
DELTA1_TUPLES = [
    (group, spec)
    for group in DEFAULT_CATALOG
    for spec in default_tuple_specs(resolve_group(group), 2, 0)
] + [
    (str(GROUPS_DIR / name), spec)
    for name in ("gap512.perm", "dgap1920.perm")
    for spec in ("G,G", "derived,derived")
]


@pytest.mark.parametrize("group,spec", DELTA1_TUPLES)
def test_delta1_series_is_the_gamma2_series(group, spec):
    """delta(1) = gamma(2) = [x1,x2]: the two series share their chain and
    every factor but for the kind, the parameter and the provenance."""
    T = parse_tuple_spec(spec, resolve_group(group)).subgroups
    d, g = build_delta_series(T, 1), build_gamma_series(T)
    assert (d.kind, d.parameter, g.kind, g.parameter) == ("delta", 1, "gamma", 2)
    assert d.base == g.base and d.terms == g.terms

    def shape(f):
        return (f.word, f.entries, f.linear_position, f.degree, f.lower, f.upper)

    assert [shape(f) for f in d.factors] == [shape(f) for f in g.factors]
    assert {f.provenance for f in d.factors} == {"delta-base"}


def test_delta_generation_top_factor(sym4):
    # the factor below the top is generated by the values of the base word on
    # the tuple with the bracket in the marked slot, on top of the lower term
    series = build_delta_series(full_normal_tuple(sym4, 4), 2)
    f = series.factors[-1]
    import numpy as np

    vs = verbal_subgroup(f.word, [e.subgroup for e in f.entries])
    assert closure(sym4, np.flatnonzero(f.lower.mask | vs.mask)) == f.upper


def test_series_builders_and_verify_series_take_the_budget_to_their_meshes():
    full = builtin_group("sym:5").full_subgroup()
    with pytest.raises(BudgetExceeded, match="value-set combination needs 14400 tuples, budget is 100"):
        build_delta_series([full, full], 1, budget=100)
    # the value sets are kept from the build, so verifying meshes [A4,A4] first
    G = builtin_group("sym:4")
    series = build_gamma_series([G.full_subgroup()] * 2)
    assert verify_series(series, budget=144).all_ok
    with pytest.raises(BudgetExceeded, match="commutator mesh needs 144 tuples, budget is 143"):
        verify_series(series, budget=143)


# ---------------------------------------------------------------------------
# trivial factors: linearity from the value set
# ---------------------------------------------------------------------------


def test_a_value_set_shrunk_into_the_lower_term_still_fails_generation(monkeypatch):
    """A factor whose values lie in its lower term is linear there without a
    sweep, so a seeded fault that shrinks a non-trivial factor's value set
    into its lower term passes linearity, and generation fails the row."""
    G = resolve_group("sym:4")
    spec = CheckSpec("T2.10", "sym:4", "gamma:2", "G,G")
    assert run_check(spec, G=G).status == "pass"
    series = build_gamma_series(parse_tuple_spec("G,G", G).subgroups)
    target = series.factors[0]
    assert target.lower.order == 4 and target.upper.order == 12
    env = {e.var: e.subgroup for e in target.entries}
    real = series_mod.value_set_over

    def shrunk(w, subs, budget=None):
        vs = real(w, subs, budget)
        if subs != env:
            return vs
        return SimpleNamespace(members=Subset(G, vs.members.mask & target.lower.mask))

    monkeypatch.setattr(series_mod, "value_set_over", shrunk)
    first = verify_series(series).factors[0]
    assert not first.generation_ok and first.linearity == LinearityReport(space=0, holds=True)
    row = run_check(spec, G=G)
    assert row.status == "fail" and row.detail.endswith("; failing factors [1]")


def test_trivial_factors_are_never_swept(monkeypatch):
    # every factor of this row lies in its lower term, so none needs a sweep
    def swept(*args, **kwargs):
        raise AssertionError("check_linearity called on a trivial factor")

    monkeypatch.setattr(series_mod, "check_linearity", swept)
    path = str(Path(__file__).resolve().parent / "groups" / "dgap1920.perm")
    G = resolve_group(path)
    series = build_gamma_series(parse_tuple_spec("G,derived,center", G).subgroups)
    assert all(f.linearity.space == 0 for f in verify_series(series).factors)
    assert run_check(CheckSpec("T2.10", path, "gamma:3", "G,derived,center"), G=G).status == "pass"


def test_a_non_trivial_factor_is_still_swept(sym4):
    series = build_gamma_series(full_normal_tuple(sym4, 2))
    assert any(f.linearity.space > 0 for f in verify_series(series).factors)
