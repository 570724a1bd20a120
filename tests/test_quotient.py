"""Linearity in the quotient G/P against the sweep in G, and the per-group memos."""

from __future__ import annotations

import numpy as np
import pytest

import verba.verbal as verbal
from verba.errors import BudgetExceeded
from verba.groups import (
    Subset,
    builtin_group,
    closure,
    commutator_subgroup,
    evaluate,
    greedy_generators,
    quotient,
    star_power,
)
from verba.harness import (
    DEFAULT_CATALOG,
    CheckSpec,
    build_suite_specs,
    parse_tuple_spec,
    resolve_word,
    run_check,
)
from verba.series import build_delta_series, build_gamma_series
from verba.verbal import check_linearity, comm_congruence_sweep, spine_decompose, value_set_over
from verba.words import delta, gamma, parse_word, render, variables

from .oracles import (
    close_under_products,
    comm_congruence_in_g,
    commutator_closure,
    congruence_modulus,
    linearity_in_g,
    normal_subgroups,
)


def _reference(G, tree, subgroups, position, modulus):
    """The G-level sweep of tests/oracles.py on the engine's sibling value sets."""
    vars_ = variables(tree)
    env = dict(zip(vars_, subgroups))
    path = spine_decompose(tree, vars_[position - 1])
    sibs = [value_set_over(sub, env).values for sub, _ in path]
    return linearity_in_g(
        G.table, G.inverse_table, modulus.mask, [left for _, left in path], sibs,
        env[vars_[position - 1]].elements,
    )


def _series_factors(spec, G):
    word, _ = resolve_word(spec.word)
    subgroups = parse_tuple_spec(spec.tuple_spec, G).subgroups
    if spec.check_id == "T2.10":
        return build_gamma_series(subgroups).factors
    k = max(1, len(variables(word)).bit_length() - 1)
    return build_delta_series(subgroups, k).factors


def test_quotient_verdicts_match_the_sweep_in_g():
    small = [g for g in DEFAULT_CATALOG if builtin_group(g).order <= 24]
    specs, groups = build_suite_specs(small, ["T2.10", "T3.6"])
    compared = 0
    for spec in specs:
        G = groups[spec.group]
        for f in _series_factors(spec, G):
            rep = check_linearity(f.word, f.subgroups, f.linear_position, f.lower)
            ref = _reference(G, f.word, f.subgroups, f.linear_position, f.lower)
            assert rep.holds == (ref is None), (spec, f.index)
            compared += 1
    assert compared > 1000


def _breaks_linearity(G, word, position, modulus, ce):
    """w(..xy..) and w(..x..)w(..y..) differ modulo P at the assignment `ce`."""
    vars_ = variables(word)
    pivot = vars_[position - 1]
    env = {v: ce[str(v)] for v in vars_}
    x, y = env[pivot], ce["y"]
    lhs = evaluate(word, G, {**env, pivot: G.mul(x, y)})
    rhs = G.mul(evaluate(word, G, env), evaluate(word, G, {**env, pivot: y}))
    return not modulus.mask[G.mul(lhs, G.inv(rhs))]


def test_lifted_counterexamples_break_linearity_in_g():
    sym3, sym4 = builtin_group("sym:3"), builtin_group("sym:4")
    v4 = commutator_subgroup(sym4.derived_subgroup(), sym4.derived_subgroup())
    assert v4.order == 4
    cases = [
        (sym3, gamma(2), [sym3.full_subgroup()] * 2, 2, sym3.trivial_subgroup()),
        (sym4, gamma(3), [sym4.full_subgroup()] * 3, 3, v4),
    ]
    for G, tree, subs, pos, modulus in cases:
        rep = check_linearity(tree, subs, pos, modulus)
        assert not rep.holds
        assert _reference(G, tree, subs, pos, modulus) is not None
        assert _breaks_linearity(G, tree, pos, modulus, rep.counterexample)
    # the non-trivial modulus is enumerated in S4/V4 ≅ S3, of order 6: 3 sibling
    # images x 6 pivot images x a 2-element generating set of S3
    assert quotient(v4)[1].order == 6
    assert rep.space == 3 * 6 * 2


DIFFERENTIAL_GROUPS = ("sym:3", "sym:4", "dih:4", "quat:8", "heis:3")


def test_generator_axis_matches_the_full_square():
    """The verdict with y over a generating set of H = NP/P against the sweep
    of the full square H x H in G, failing cases included."""
    verdicts = {True: 0, False: 0}
    for spec in DIFFERENTIAL_GROUPS:
        G = builtin_group(spec)
        for tree in (gamma(2), gamma(3), delta(1)):
            subs = [G.full_subgroup()] * len(variables(tree))
            for modulus in (G.trivial_subgroup(), G.center(), G.derived_subgroup()):
                for pos in range(1, len(subs) + 1):
                    rep = check_linearity(tree, subs, pos, modulus)
                    ref = _reference(G, tree, subs, pos, modulus)
                    case = (spec, render(tree), pos, modulus.order)
                    assert rep.holds == (ref is None), case
                    if not rep.holds:
                        assert _breaks_linearity(G, tree, pos, modulus, rep.counterexample), case
                    verdicts[rep.holds] += 1
    assert verdicts[True] > 0 and verdicts[False] > 0


def test_greedy_generators_generate_the_pivot_image():
    for spec in DIFFERENTIAL_GROUPS:
        G = builtin_group(spec)
        for modulus in (G.trivial_subgroup(), G.center(), G.derived_subgroup()):
            labels, Q = quotient(modulus)
            for N in (G.full_subgroup(), G.derived_subgroup(), G.center()):
                axis = verbal._coset_images(labels, N.elements)[0]
                gens = greedy_generators(Q.mul_arr, Q.order, axis)
                assert set(np.flatnonzero(closure(Q, gens).mask)) == set(axis.tolist())
                # each generator lies outside the closure of those before it
                for i in range(len(gens)):
                    assert not closure(Q, gens[:i]).mask[gens[i]]


def test_pivot_inside_the_modulus_tests_no_tuple():
    """H = NP/P is trivial, so its generating set is empty and the check
    holds with an empty space, as the full square in G confirms."""
    for spec in DIFFERENTIAL_GROUPS:
        G = builtin_group(spec)
        D = G.derived_subgroup()
        for tree in (gamma(2), gamma(3)):
            subs = [G.full_subgroup()] * (len(variables(tree)) - 1) + [D]
            pos = len(subs)
            rep = check_linearity(tree, subs, pos, D)
            assert rep.holds and rep.space == 0
            assert _reference(G, tree, subs, pos, D) is None


def test_trivial_modulus_reuses_the_group():
    G = builtin_group("dih:4")
    labels, Q = quotient(G.trivial_subgroup())
    assert Q is G and labels.dtype == np.int32
    assert np.array_equal(labels, np.arange(G.order))
    labels, Q = quotient(G.center())
    assert labels.dtype == np.int32 and Q.order == G.order // G.center().order
    assert quotient(G.center())[1] is Q


def test_corrupted_coset_label_flips_a_series_check(monkeypatch):
    spec = CheckSpec("T2.10", "sym:4", "gamma:2", "G,G")
    assert run_check(spec).status == "pass"
    real = verbal.quotient

    def corrupt(P):
        labels, Q = real(P)
        if Q.order < 2:
            return labels, Q
        bad = labels.copy()
        bad[-1] = (bad[-1] + 1) % Q.order
        return bad, Q

    monkeypatch.setattr(verbal, "quotient", corrupt)
    assert run_check(spec).status == "fail"


# ---------------------------------------------------------------------------
# the commutator congruence (L2.8): linearity in x1 and a kernel value set
# ---------------------------------------------------------------------------

# dih:8 has triples where [K,N,K] is neither trivial nor [K,N,K][L,N], so
# a seeded modulus flips them in a proper quotient and the lift is tested
CONGRUENCE_GROUPS = ("sym:4", "dih:4", "quat:8", "cyc:2 x sym:3", "dih:8", "alt:4")


def _normal_triples(G):
    """Every (K, L, N) of normal subgroups, found by the oracle, as the
    engine's subsets together with their element lists."""
    subs = [(G.subset(sorted(S)), sorted(S)) for S in normal_subgroups(G.table)]
    return [(a, b, c) for a in subs for b in subs for c in subs]


def test_quotient_congruence_matches_the_sweep_in_g():
    verdicts = {True: 0, False: 0}
    for spec in CONGRUENCE_GROUPS:
        G = builtin_group(spec)
        for (K, ks), (L, ls), (N, ns) in _normal_triples(G):
            rep = comm_congruence_sweep(K, L, N, None)
            lk = sorted(set(ks) & set(ls))
            modulus = congruence_modulus(G.table, ks, ls, ns)
            first, count = comm_congruence_in_g(G.table, ks, ks, lk, ns, modulus)
            case = (spec, K.order, L.order, N.order)
            assert rep.holds == (first is None), case
            assert set(map(int, rep.modulus.elements)) == modulus, case
            assert rep.swept == count == K.order**2 * len(lk) * N.order, case
            verdicts[rep.holds] += 1
    # 4, 6, 6, 7, 7 and 3 normal subgroups; the lemma holds on every triple
    assert verdicts == {True: 4**3 + 6**3 + 6**3 + 7**3 + 7**3 + 3**3, False: 0}


def _weak_modulus(K, L, N, budget=None):
    """[K,N,K] alone, without [L,N]: the lemma can fail modulo it."""
    return commutator_subgroup(commutator_subgroup(K, N), K)


def test_a_modulus_without_ln_flips_lifted_counterexamples(monkeypatch):
    """With [K,N,K] alone as the modulus the congruence fails for some
    triples; each failure, lifted to G, breaks the congruence in G, with
    y, z in K, l in L and K, and n in N."""
    monkeypatch.setattr(verbal, "comm_congruence_modulus", _weak_modulus)
    flipped = {"trivial modulus": 0, "proper quotient": 0}
    for spec in CONGRUENCE_GROUPS:
        G = builtin_group(spec)
        for (K, ks), (L, ls), (N, ns) in _normal_triples(G):
            rep = comm_congruence_sweep(K, L, N, None)
            knk = commutator_closure(G.table, commutator_closure(G.table, ks, ns), ks)
            lk = sorted(set(ks) & set(ls))
            first, _ = comm_congruence_in_g(G.table, ks, ks, lk, ns, knk)
            assert rep.holds == (first is None)
            if rep.holds:
                continue
            y, z, ell, n = rep.counterexample
            assert y in ks and z in ks and ell in lk and n in ns
            assert comm_congruence_in_g(G.table, [y], [z], [ell], [n], knk)[0] is not None
            flipped["trivial modulus" if len(knk) == 1 else "proper quotient"] += 1
    assert flipped["trivial modulus"] > 0 and flipped["proper quotient"] > 0


def _breaks_congruence(G, point, modulus):
    y, z, ell, n = point
    members = set(map(int, modulus.elements))
    return comm_congruence_in_g(G.table, [y], [z], [ell], [n], members)[0] == point


def test_linearity_failure_is_a_point_with_l_trivial(monkeypatch):
    """sym:3 modulo the trivial subgroup: [x,n] is not multiplicative in x,
    and the failure {x1: y, y: s, x2: n} is reported as (y, s, 0, n)."""
    monkeypatch.setattr(
        verbal, "comm_congruence_modulus", lambda K, L, N, budget=None: K.group.trivial_subgroup()
    )
    G = builtin_group("sym:3")
    full = G.full_subgroup()
    rep = comm_congruence_sweep(full, full, full, None)
    lin = check_linearity(gamma(2), [full, full], 1, rep.modulus)
    assert not lin.holds
    ce = lin.counterexample
    assert rep.counterexample == (ce["x1"], ce["y"], 0, ce["x2"])
    assert rep.swept == lin.space
    assert _breaks_congruence(G, rep.counterexample, rep.modulus)


def test_kernel_failure_is_a_point_with_y_and_z_trivial(monkeypatch):
    """heis:3 modulo [G,G,G], which is trivial: [x,n] is multiplicative in
    x, as the group has class 2, but [l,n] is not always 1, so the failure
    is (0, 0, l, n) with [l,n] the first value of [x1,x2] outside it."""
    monkeypatch.setattr(verbal, "comm_congruence_modulus", _weak_modulus)
    G = builtin_group("heis:3")
    full = G.full_subgroup()
    rep = comm_congruence_sweep(full, full, full, None)
    lin = check_linearity(gamma(2), [full, full], 1, rep.modulus)
    assert lin.holds and rep.modulus.order == 1
    _, _, ell, n = rep.counterexample
    assert rep.counterexample == (0, 0, ell, n) and G.comm(ell, n) != 0
    values = verbal.value_set(gamma(2), [full, full]).values
    assert rep.swept == lin.space + int(np.flatnonzero(~rep.modulus.mask[values])[0])
    assert _breaks_congruence(G, rep.counterexample, rep.modulus)


def test_congruence_budget_bounds_linearity_and_the_value_set():
    G = builtin_group("sym:4")
    full = G.full_subgroup()
    # G/[G,G,G][G,G] has order 2, so linearity walks 2 x 2 x 1 tuples, and
    # the value set of [x1,x2] over (L∩K, N) combines 24 x 24 values
    rep = comm_congruence_sweep(full, full, full, 576)
    assert rep.holds and rep.modulus.order == 12 and rep.swept == 24**4
    assert check_linearity(gamma(2), [full, full], 1, rep.modulus).space == 4
    cold = builtin_group("sym:4")  # no value set memoised yet
    row = run_check(CheckSpec("L2.8", "sym:4", "-", "G,G,G"), G=cold, budget=575)
    assert row.status == "skip-budget"
    # with L trivial, heis:3 has M = [G,G,G] = 1: 27 x 27 x 3 linearity
    # tuples, the greedy generating set taking three, against a 1 x 27
    # value set
    H = builtin_group("heis:3")
    full, trivial = H.full_subgroup(), H.trivial_subgroup()
    assert comm_congruence_sweep(full, trivial, full, 2187).holds
    with pytest.raises(BudgetExceeded):
        comm_congruence_sweep(full, trivial, full, 2186)


# ---------------------------------------------------------------------------
# memos
# ---------------------------------------------------------------------------


def test_memoised_closure_matches_the_oracle():
    G = builtin_group("sym:4")

    def mul(a, b):
        return int(G.table[a, b])

    def inv(a):
        return int(G.inverse_table[a])

    for seed in ([3], [5, 1], [7, 11, 2], [1, 5]):
        first = closure(G, seed)
        # indices, an array, a Subset and an equal Subset object: one entry
        for again in (np.array(seed), G.subset(seed), Subset(G, G.subset(seed).mask)):
            assert closure(G, again) is first
        assert first.generators == tuple(sorted(set(seed)))
        want = close_under_products(seed, mul, inv)
        assert set(map(int, first.elements)) == want
        # the radius-0 star power {1} of the same seed is an entry of its own
        zero = star_power(G, G.subset(seed), 0)
        assert zero.order == 1 and zero is not first and closure(G, seed) is first
    # [5, 1] and [1, 5] are one seed: three closures and three radius-0 balls
    assert sum(kind == "star_power" for kind, _ in G._memo) == 6


def test_value_set_memo_ignores_word_identity():
    G = builtin_group("dih:4")
    full = G.full_subgroup()
    a, b = parse_word("[[x1,x2],x3]"), gamma(3)
    assert a == b and a is not b
    va = value_set_over(a, {v: full for v in variables(a)})
    vb = value_set_over(b, {v: G.full_subgroup() for v in variables(b)})
    assert np.array_equal(va.values, vb.values)
    assert all(va.witness(v) == vb.witness(v) for v in va.values)
    cold = builtin_group("dih:4")
    vc = value_set_over(b, {v: cold.full_subgroup() for v in variables(b)})
    assert np.array_equal(vc.values, va.values)
    assert all(vc.witness(v) == va.witness(v) for v in va.values)
    for value in va.values:
        assert evaluate(b, G, vb.witness(value)) == int(value)
