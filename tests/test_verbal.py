"""Value sets, verbal subgroups, linearity and the membership checkers."""

from __future__ import annotations

import math

import numpy as np
import pytest

from verba import verbal
from verba.enumeration import ProductSpace
from verba.errors import (
    ArityMismatch,
    BadIndex,
    BudgetExceeded,
    NotNormal,
    PowerConditionFailed,
    PreconditionFailed,
    UnknownSpec,
)
from verba.groups import (
    builtin_group,
    closure,
    evaluate,
    evaluate_arrays,
    normal_closure,
    star_power,
)
from verba.harness import parse_tuple_spec
from verba.series import build_delta_series, build_gamma_series, generator_bound_report
from verba.verbal import (
    check_disjoint_split,
    check_linearity,
    check_substitution,
    class_generating_subset,
    comm_congruence_sweep,
    enumerate_values,
    extended_width_sweep,
    star_membership_sweep,
    value_set,
    value_set_over,
    verbal_subgroup,
    width_sweep,
)
from verba.words import (
    classify_outer_commutator,
    delta,
    enumerate_extended,
    extension_degree,
    gamma,
    parse_word,
    render,
    variables,
    xvar,
    yvar,
)

from .oracles import element_order, star_power_by_sets


def full_tuple(G, r):
    return [G.full_subgroup()] * r


# ---------------------------------------------------------------------------
# value sets
# ---------------------------------------------------------------------------


def test_value_set_quat_commutators(quat8):
    vs = value_set(gamma(2), full_tuple(quat8, 2))
    assert vs.size == 2
    assert sorted(quat8.element_name(int(v)) for v in vs.values) == ["-1", "1"]


def test_value_set_with_identity_entry(sym4):
    vs = value_set(delta(2), full_tuple(sym4, 3) + [sym4.trivial_subgroup()])
    assert vs.size == 1 and int(vs.values[0]) == 0


def test_value_set_delta2_sym4(sym4):
    vs = value_set(delta(2), full_tuple(sym4, 4))
    assert vs.size == 4
    assert closure(sym4, vs.members).order == 4


def test_value_set_witnesses_are_preimages(sym4):
    vs = value_set(gamma(3), full_tuple(sym4, 3))
    for val in vs.values:
        assert evaluate(gamma(3), sym4, vs.witness(val)) == val


def test_value_set_normal_when_inputs_normal(sym4):
    vs = value_set(gamma(2), full_tuple(sym4, 2))
    assert vs.members.is_normal


def test_value_set_arity_mismatch(sym3):
    # every entry that maps a tuple onto the word's variables says it alike
    three = full_tuple(sym3, 3)
    calls = [
        lambda: value_set(gamma(2), three),
        lambda: check_disjoint_split(gamma(2), three),
        lambda: check_linearity(gamma(2), three, 1, sym3.trivial_subgroup()),
        lambda: star_membership_sweep(gamma(2), three, None),
    ]
    for call in calls:
        with pytest.raises(ArityMismatch, match=r"^word \[x1,x2\] has 2 variables, got 3 subsets$"):
            call()


def test_value_sets_take_subsets_not_index_lists(sym3):
    full = sym3.full_subgroup()
    x1, x2 = variables(gamma(2))
    calls = [
        lambda: value_set(gamma(2), [[0, 1], [0, 1]]),
        lambda: value_set(gamma(2), [full, [0, 1]]),
        lambda: value_set_over(gamma(2), {x1: [0, 1], x2: full}),
    ]
    for call in calls:
        with pytest.raises(PreconditionFailed, match=r"^value sets take Subsets; x\d got a list$"):
            call()


def test_value_set_budget_literal(sym4):
    with pytest.raises(BudgetExceeded):
        value_set_over(
            parse_word("x1*x2*x1"),
            {xvar(1): sym4.full_subgroup(), xvar(2): sym4.full_subgroup()},
            budget=10,
        )


# words whose value sets go through powers, inverses, products of three
# factors and a repeated variable, next to outer commutator words
NON_OCW = [parse_word(t) for t in ("x1^2*x2", "[x1^2,x2]^-1", "x1*x2*x1", "x1^-1*x2^2*x3^3")]


@pytest.mark.parametrize("word", [gamma(2), gamma(3), delta(2)] + NON_OCW)
@pytest.mark.parametrize("spec", ["sym:3", "quat:8", "dih:4", "cyc:2 x sym:3"])
def test_value_set_matches_direct_enumeration(word, spec):
    G = builtin_group(spec)
    tup = full_tuple(G, len(variables(word)))
    vs = value_set(word, tup)
    space = ProductSpace([s.elements.astype(np.int64) for s in tup])
    seen = np.zeros(G.order, dtype=bool)
    vars_ = variables(word)
    for _, cols in space.blocks():
        seen[evaluate_arrays(word, G, dict(zip(vars_, cols)))] = True
    assert np.array_equal(np.flatnonzero(seen), vs.values)


@pytest.mark.parametrize("word", [gamma(2), gamma(3), delta(2)] + NON_OCW)
@pytest.mark.parametrize("spec", ["sym:3", "sym:4", "quat:8"])
def test_value_set_witnesses_are_preimages_in_their_subsets(word, spec):
    G = builtin_group(spec)
    vars_ = variables(word)
    subsets = [G.derived_subgroup() if i % 2 else G.full_subgroup() for i in range(len(vars_))]
    vs = value_set(word, subsets)
    for v in vs.values:
        wit = vs.witness(v)
        assert list(wit) == list(vars_)
        assert evaluate(word, G, wit) == v
        assert all(s.mask[wit[x]] for x, s in zip(vars_, subsets))


# ---------------------------------------------------------------------------
# verbal subgroups
# ---------------------------------------------------------------------------


def test_verbal_subgroup_examples(sym3, sym4, quat8):
    assert verbal_subgroup(gamma(2), full_tuple(sym3, 2)).order == 3
    assert verbal_subgroup(delta(2), full_tuple(sym4, 4)).order == 4
    trivial = [quat8.full_subgroup(), quat8.trivial_subgroup()]
    assert verbal_subgroup(gamma(2), trivial).order == 1


def test_verbal_subgroup_of_substituted_word(sym4):
    word = parse_word("[x1^2,x2^3]")
    sub = verbal_subgroup(word, full_tuple(sym4, 2))
    assert sub.order == 12


def test_generator_independence_exhaustive():
    words = [gamma(2), gamma(3), delta(2), classify_outer_commutator(parse_word("[x1,[x2,x3]]"))]
    for spec in ("sym:4", "quat:8", "dih:6", "heis:3"):
        G = builtin_group(spec)
        for word in words:
            r = len(variables(word))
            subset = class_generating_subset(G.full_subgroup())
            via_s = verbal_subgroup(word, [subset] * r)
            via_n = verbal_subgroup(word, full_tuple(G, r))
            assert via_s == via_n, (spec, render(word), via_s.order, via_n.order)


# ---------------------------------------------------------------------------
# tuples of normal subgroups and their generating subsets
# ---------------------------------------------------------------------------


def test_normal_tuple_rejects_non_normal(sym3, quat8):
    # the series builders take normal subgroups of one group only
    swap = closure(sym3, [sym3.element_names.index("(1 2)")])
    with pytest.raises(NotNormal):
        build_gamma_series([swap])
    with pytest.raises(NotNormal):
        build_delta_series([sym3.full_subgroup(), swap], 1)
    with pytest.raises(BadIndex, match="^subset belongs to a different group$"):
        build_gamma_series([sym3.full_subgroup(), quat8.full_subgroup()])


def test_normal_tuple_rejects_non_generating_subset(sym3):
    subset = sym3.subset([0]).require_normal()
    series = build_gamma_series([sym3.full_subgroup()])
    with pytest.raises(PreconditionFailed, match="does not generate"):
        generator_bound_report(series, [subset])


def test_power_condition():
    # a set: entry stands for the subgroup it generates, here {0,2,4,6},
    # and all n-th powers of that subgroup must lie in the set
    c8 = builtin_group("cyc:8")
    tup = parse_tuple_spec("set:(0,2,4,6);n=2", c8)
    assert tup.subgroups[0] == closure(c8, [2]) and tup.subgroups[0].order == 4
    assert tup.generators[0] == c8.subset([0, 2, 4, 6])
    assert parse_tuple_spec("set:(0,2,6);n=4", c8).subgroups[0].order == 4
    with pytest.raises(PowerConditionFailed, match="entry 1: some 1-th power"):
        parse_tuple_spec("set:(0,2,6);n=1", c8)
    with pytest.raises(PowerConditionFailed, match="entry 2: some 2-th power"):
        parse_tuple_spec("G,set:(0,2,6);n=2", c8)
    with pytest.raises(UnknownSpec):
        parse_tuple_spec("set:(0,2,4,6)", c8)  # an exponent is required


def test_noncommutator_power_values(sym4):
    # a multi-variable non-commutator evaluated with all but one entry at the
    # identity returns the exponent-sum power of the remaining entry
    u = parse_word("x1*x2*x1")
    for g in range(sym4.order):
        val = evaluate(u, sym4, {xvar(1): g, xvar(2): 0})
        assert val == sym4.power(g, 2)


def test_class_generating_subset_sym3(sym3):
    subset = class_generating_subset(sym3.full_subgroup())
    names = sorted(sym3.element_name(int(e)) for e in subset.elements)
    assert names == ["()", "(1 2)", "(1 3)", "(2 3)"]


# ---------------------------------------------------------------------------
# split and substitution
# ---------------------------------------------------------------------------


def test_disjoint_split_examples(sym4, sym3, quat8):
    rep = check_disjoint_split(delta(2), full_tuple(sym4, 4))
    assert rep.equal and rep.whole.order == 4
    rep = check_disjoint_split(gamma(2), [quat8.full_subgroup(), quat8.trivial_subgroup()])
    assert rep.equal and rep.whole.order == 1
    rep = check_disjoint_split(gamma(3), full_tuple(sym3, 3))
    assert rep.equal and rep.whole.order == 3


def test_substitution_examples(sym3, sym4, quat8):
    rep = check_substitution(gamma(2), [xvar(1), xvar(2)], sym3)
    assert rep.equal and rep.direct_order == 3
    rep = check_substitution(gamma(2), [parse_word("x1^2"), parse_word("x2^3")], sym4)
    assert rep.equal
    rep = check_substitution(gamma(2), [parse_word("x1^2"), parse_word("x2^2")], quat8)
    assert rep.equal and rep.direct_order == 1
    # the argument subgroups u_i(G): squares generate the order-2 centre of quat:8
    squares = [verbal_subgroup(parse_word(u), [quat8.full_subgroup()]) for u in ("x1^2", "x2^2")]
    assert [s.order for s in squares] == [2, 2]


# ---------------------------------------------------------------------------
# star membership and width
# ---------------------------------------------------------------------------


def test_star_membership_base_case(sym3):
    s = class_generating_subset(sym3.full_subgroup())
    leaf = xvar(1)
    rep = star_membership_sweep(leaf, [s], None)
    # a single leaf: the points are the elements of S, each in S^(*1)
    assert rep.holds and rep.swept == s.order


def test_star_membership_quat(quat8):
    s = quat8.subset([quat8.element_names.index("i"), quat8.element_names.index("-i")])
    # covers t = (i, j) at position 1, and every other (S, G) and (G, S) pair
    rep = star_membership_sweep(gamma(2), [s, s], None)
    # two positions, each |S| x |G| = 2 x 8 collapsed tuples
    assert rep.holds and rep.swept == 32


def test_star_membership_sweep_gamma3(sym4):
    s = sym4.subset([i for i in range(24) if element_order(i, sym4.mul, 0) == 3])
    s.require_normal()
    star = star_power(sym4, s, 4)
    rng = np.random.default_rng(5)
    for _ in range(30):
        t = [int(rng.integers(0, 24)) for _ in range(3)]
        t[1] = int(s.elements[rng.integers(0, s.order)])
        val = evaluate(gamma(3), sym4, dict(zip(variables(gamma(3)), t)))
        assert star.mask[val]
    # the sweep covers every such tuple, at every position
    assert star_membership_sweep(gamma(3), [s, s, s], None).holds


def test_star_membership_precondition(sym3):
    swap = sym3.subset([sym3.element_names.index("(1 2)")])
    s = class_generating_subset(sym3.full_subgroup())
    with pytest.raises(NotNormal):
        star_membership_sweep(gamma(2), [s, swap], None)
    with pytest.raises(ArityMismatch):
        star_membership_sweep(gamma(2), [s], None)
    # a variable under a product is off the commutator spine
    with pytest.raises(PreconditionFailed):
        star_membership_sweep(parse_word("[x1,x2]*x3"), [s, s, s], None)


def test_width_examples(sym4):
    transpositions = sym4.subset(
        [i for i in range(24) if sum(1 for a, b in enumerate(sym4.perm_images[i]) if a != b) == 2]
    )
    transpositions.require_normal()
    sets = [transpositions, transpositions]
    # a product of two transpositions against one at m = (2, 1), two
    # transpositions at (1, 1), and a transposition against the identity at
    # (1, 3): each lies in the space swept for its vector
    vectors = [(2, 1), (1, 1), (1, 3)]
    rep = width_sweep(gamma(2), sets, vectors, None)
    values = [
        value_set(gamma(2), [star_power(sym4, transpositions, m) for m in mvec]).size
        for mvec in vectors
    ]
    assert rep.holds and rep.swept == sum(values)


def test_width_precondition(sym4):
    s = class_generating_subset(sym4.full_subgroup())
    with pytest.raises(ArityMismatch):
        width_sweep(gamma(2), [s, s], [(1, 1, 1)], None)
    swap = sym4.subset([1])
    with pytest.raises(NotNormal):
        width_sweep(gamma(2), [s, swap], [(1, 1)], None)


def test_extended_width(sym4):
    s = class_generating_subset(sym4.full_subgroup())
    v = classify_outer_commutator(parse_word("[[y1,y2],[x1,x2]]"))
    # every (x1, x2) in S x S and (y1, y2) in G x G, through the value set
    rep = extended_width_sweep([v], gamma(2), [s, s], [(1, 1)], None)
    full = sym4.full_subgroup()
    env = {xvar(1): s, xvar(2): s, yvar(1): full, yvar(2): full}
    assert rep.holds and rep.swept == value_set_over(v, env).size


def test_extended_width_identity_y_collapses(sym4):
    s = class_generating_subset(sym4.full_subgroup())
    v = classify_outer_commutator(parse_word("[[y1,y2],[x1,x2]]"))
    assignment = {xvar(1): int(s.elements[1]), xvar(2): int(s.elements[2]), yvar(1): 0, yvar(2): 0}
    assert evaluate(v, sym4, assignment) == 0
    assert extended_width_sweep([v], gamma(2), [s, s], [(1, 1)], None).holds


def test_extended_width_rejects_non_extension(sym4):
    s = class_generating_subset(sym4.full_subgroup())
    with pytest.raises(PreconditionFailed):
        extended_width_sweep([gamma(3)], gamma(2), [s, s], [(1, 1)], None)


def _values_at(v, w, subsets, mvec):
    """Values of v over its raw assignment space, variables(w)[i] in the
    m_i star power of subsets[i] (by set arithmetic) and the y's in G."""
    G = subsets[0].group
    env = {
        x: G.subset(sorted(star_power_by_sets(G.table, S.elements, m)))
        for x, S, m in zip(variables(w), subsets, mvec)
    }
    full = G.full_subgroup()
    return enumerate_values(v, {u: env.get(u, full) for u in variables(v)}, None)


def _bound(w, subsets, n):
    """The n-th star power of w{S}, by set arithmetic on raw values."""
    base = enumerate_values(w, dict(zip(variables(w), subsets)), None)
    return star_power_by_sets(subsets[0].group.table, base, n)


def _per_vector(exts, w, subsets, mvecs, shrink=0):
    """Lemma 3.2 vector by vector, as the sweep ran before the widest-vector
    proof: the first (extension, vector, least escaping value), vectors
    outer and extensions inner, or None; and the sizes of the value sets
    tested.  The bound is `shrink` steps short."""
    sizes = []
    for mvec in mvecs:
        for v in exts:
            vals = _values_at(v, w, subsets, mvec)
            sizes.append(vals.size)
            bound = _bound(w, subsets, math.prod(mvec) * 2 ** extension_degree(v, w) - shrink)
            escaping = [int(a) for a in vals if int(a) not in bound]
            if escaping:
                return (v, mvec, escaping[0]), sizes
    return None, sizes


def _widest_vector_sizes(exts, w, subsets, mvecs):
    """The value set sizes at the componentwise maximum vector if each lies
    in the star power at the least product, else None."""
    wide = [max(m[i] for m in mvecs) for i in range(len(subsets))]
    low = min(math.prod(m) for m in mvecs)
    sizes = []
    for v in exts:
        vals = _values_at(v, w, subsets, wide)
        if not set(map(int, vals)) <= _bound(w, subsets, low * 2 ** extension_degree(v, w)):
            return None
        sizes.append(vals.size)
    return sizes


def _width_cases():
    sym4, dih4 = builtin_group("sym:4"), builtin_group("dih:4")
    transpositions = sym4.subset(
        [i for i in range(24) if sum(1 for a, b in enumerate(sym4.perm_images[i]) if a != b) == 2]
    )
    subsets = [transpositions]
    for G in (sym4, dih4):
        subsets += [class_generating_subset(N) for N in (G.full_subgroup(), G.derived_subgroup())]
    subsets.append(class_generating_subset(normal_closure(dih4, [1])))
    width_lists = [[(1, 1), (2, 1), (1, 2), (2, 2)], [(2, 1), (1, 1), (1, 3)], [(3, 1), (1, 3)]]
    for S in subsets:
        for mvecs in width_lists:
            yield [gamma(2)], gamma(2), [S, S], mvecs
        yield [gamma(3)], gamma(3), [S, S, S], [(1, 1, 1), (2, 1, 1), (1, 1, 2)]
        yield enumerate_extended(gamma(2), 1, 2), gamma(2), [S, S], [(1, 1), (2, 1)]


def test_widest_vector_proof_matches_the_per_vector_sweep():
    paths = {"proof": 0, "per-vector": 0}
    for exts, w, subsets, mvecs in _width_cases():
        rep = extended_width_sweep(exts, w, subsets, mvecs, None)
        first, sizes = _per_vector(exts, w, subsets, mvecs)
        assert rep.holds and first is None
        proof = _widest_vector_sizes(exts, w, subsets, mvecs)
        if exts == [w]:
            assert width_sweep(w, subsets, mvecs, None) == rep
        # `swept` counts the values of the path that decided
        assert rep.swept == sum(proof if proof is not None else sizes)
        paths["proof" if proof is not None else "per-vector"] += 1
    assert paths["proof"] > 0 and paths["per-vector"] > 0


def test_width_sweep_passes_where_the_widest_vector_proof_fails(sym4):
    transpositions = sym4.subset(
        [i for i in range(24) if sum(1 for a, b in enumerate(sym4.perm_images[i]) if a != b) == 2]
    )
    sets, vectors = [transpositions, transpositions], [(2, 1), (1, 1), (1, 3)]
    # at the widest vector (2, 3) a value escapes the star power at the
    # least product, 1, but each vector holds on its own
    assert _widest_vector_sizes([gamma(2)], gamma(2), sets, vectors) is None
    rep = width_sweep(gamma(2), sets, vectors, None)
    assert rep.holds and _per_vector([gamma(2)], gamma(2), sets, vectors)[0] is None


def test_a_short_bound_gives_the_per_vector_counterexample(monkeypatch):
    """With the star powers of w{S} one step short the sweep fails, at the
    first (vector, extension) pair and least value the per-vector sweep
    finds."""
    real = verbal.star_power
    failed = 0
    for exts, w, subsets, mvecs in _width_cases():
        base = value_set(w, subsets).members
        monkeypatch.setattr(
            verbal, "star_power", lambda G, S, n: real(G, S, n - 1 if S == base else n)
        )
        rep = extended_width_sweep(exts, w, subsets, mvecs, None)
        first, _ = _per_vector(exts, w, subsets, mvecs, shrink=1)
        assert rep.holds == (first is None)
        if first is not None:
            v, mvec, value, wit = rep.counterexample
            assert (v, mvec, value) == first
            assert evaluate(v, subsets[0].group, dict(zip(variables(v), wit))) == value
            failed += 1
    assert failed > 0


# ---------------------------------------------------------------------------
# linearity
# ---------------------------------------------------------------------------


def test_linearity_modulo_whole_group(sym3):
    rep = check_linearity(gamma(2), full_tuple(sym3, 2), 1, sym3.full_subgroup())
    assert rep.holds


def test_linearity_quat_central(quat8):
    center = quat8.center()
    rep = check_linearity(
        gamma(2), [quat8.full_subgroup(), center], 2, quat8.trivial_subgroup()
    )
    assert rep.holds


def test_linearity_sym3_fails_with_counterexample(sym3):
    rep = check_linearity(gamma(2), full_tuple(sym3, 2), 2, sym3.trivial_subgroup())
    assert not rep.holds
    ce = rep.counterexample
    word = gamma(2)
    lhs = evaluate(word, sym3, {xvar(1): ce["x1"], xvar(2): sym3.mul(ce["x2"], ce["y"])})
    rhs = sym3.mul(
        evaluate(word, sym3, {xvar(1): ce["x1"], xvar(2): ce["x2"]}),
        evaluate(word, sym3, {xvar(1): ce["x1"], xvar(2): ce["y"]}),
    )
    assert lhs != rhs


def test_linearity_budget(sym4):
    with pytest.raises(BudgetExceeded):
        check_linearity(gamma(3), full_tuple(sym4, 3), 1, sym4.trivial_subgroup(), budget=100)


def test_linearity_requires_normal_modulus(sym3):
    swap = closure(sym3, [sym3.element_names.index("(1 2)")])
    with pytest.raises(NotNormal):
        check_linearity(gamma(2), full_tuple(sym3, 2), 1, swap)


# ---------------------------------------------------------------------------
# collapse versus raw enumeration oracles
# ---------------------------------------------------------------------------


def _raw_linearity(G, tree, subgroups, position, modulus):
    """Plain nested-loop sweep of the full tuple space, no projection."""
    import itertools

    vars_ = variables(tree)
    sets = dict(zip(vars_, subgroups))
    pivot = vars_[position - 1]
    spaces = [list(map(int, sets[v].elements)) for v in vars_]
    for combo in itertools.product(*spaces):
        env = dict(zip(vars_, combo))
        for y in map(int, sets[pivot].elements):
            lhs = evaluate(tree, G, {**env, pivot: G.mul(env[pivot], y)})
            rhs = G.mul(
                evaluate(tree, G, env), evaluate(tree, G, {**env, pivot: y})
            )
            if not modulus.mask[G.mul(lhs, G.inv(rhs))]:
                return False
    return True


def test_linearity_collapse_matches_raw_enumeration(sym3, quat8):
    d3 = builtin_group("dih:3")
    cases = [
        (sym3, gamma(2), [sym3.full_subgroup()] * 2, 2, sym3.trivial_subgroup()),
        (sym3, gamma(2), [sym3.full_subgroup()] * 2, 2, sym3.derived_subgroup()),
        (sym3, gamma(2), [sym3.full_subgroup()] * 2, 1, sym3.trivial_subgroup()),
        (sym3, gamma(3), [sym3.full_subgroup(), sym3.derived_subgroup(), sym3.full_subgroup()], 2, sym3.trivial_subgroup()),
        (sym3, gamma(3), [sym3.full_subgroup()] * 3, 3, sym3.derived_subgroup()),
        (quat8, gamma(2), [quat8.full_subgroup(), quat8.center()], 2, quat8.trivial_subgroup()),
        (quat8, delta(2), [quat8.full_subgroup(), quat8.center(), quat8.derived_subgroup(), quat8.full_subgroup()], 1, quat8.trivial_subgroup()),
        (d3, gamma(2), [d3.full_subgroup(), d3.derived_subgroup()], 2, d3.trivial_subgroup()),
    ]
    for G, tree, subs, pos, modulus in cases:
        rep = check_linearity(tree, subs, pos, modulus)
        raw = _raw_linearity(G, tree, subs, pos, modulus)
        assert rep.holds == raw, (G.label, render(tree), pos, rep.holds, raw)


def test_star_membership_collapse_matches_raw(sym3, monkeypatch):
    # the value-set form versus scalar evaluation over the whole space, with
    # the lemma's star power and with one too small to hold
    import itertools

    s = class_generating_subset(sym3.full_subgroup())
    tree = gamma(3)
    leaves = variables(tree)

    def first_raw_failure(n):
        """The first position with a value outside S^(*n), and the least
        such value there."""
        star = star_power(sym3, s, n)
        for pos in (1, 2, 3):
            escaped = set()
            for combo in itertools.product(range(6), repeat=2):
                for sv in map(int, s.elements):
                    t = list(combo)
                    t.insert(pos - 1, sv)
                    val = evaluate(tree, sym3, dict(zip(leaves, t)))
                    if not star.mask[val]:
                        escaped.add(val)
            if escaped:
                return pos, min(escaped)
        return None

    rep = star_membership_sweep(tree, [s, s, s], None)
    assert first_raw_failure(4) is None and rep.holds
    # collapsing the siblings to their value sets never grows the space
    assert rep.swept <= 3 * 36 * s.order

    real = verbal.star_power
    monkeypatch.setattr(verbal, "star_power", lambda G, S, n: real(G, S, 1))
    rep = star_membership_sweep(tree, [s, s, s], None)
    pos, value, wit = rep.counterexample  # the witness follows the leaves
    assert (pos, value) == first_raw_failure(1) and pos == 1 and rep.swept == 0
    assert s.mask[wit[pos - 1]] and evaluate(tree, sym3, dict(zip(leaves, wit))) == value
    assert not real(sym3, s, 1).mask[value]


def test_value_set_witness_is_first_in_leaf_order(sym3):
    import itertools

    # a commutator of two variables, and a word whose root repeats a
    # variable, so that its witness comes from the raw assignment space
    for word in (gamma(2), parse_word("x1*x2*x1")):
        vs = value_set(word, [sym3.full_subgroup()] * 2)
        first: dict[int, tuple[int, int]] = {}
        for a, b in itertools.product(range(6), range(6)):
            val = evaluate(word, sym3, {xvar(1): a, xvar(2): b})
            first.setdefault(val, (a, b))
        assert {int(v): tuple(vs.witness(v).values()) for v in vs.values} == first


# ---------------------------------------------------------------------------
# commutator congruence
# ---------------------------------------------------------------------------


def test_comm_congruence_exact_product(sym4):
    k = sym4.derived_subgroup()
    trivial = sym4.trivial_subgroup()
    # L trivial: x = yz exactly, for every y, z, n in K
    rep = comm_congruence_sweep(k, trivial, k, None)
    assert rep.holds and rep.swept == k.order**3


def test_comm_congruence_identity_n(sym4):
    k = sym4.derived_subgroup()
    rep = comm_congruence_sweep(k, k, k, None)
    # n = 1 is in every swept (y, z, l, n); the modulus is [K,K,K][K,K]
    assert rep.holds and rep.modulus.order == 4
    assert rep.swept == k.order**4


def test_comm_congruence_sym4_sweep(sym4):
    k = sym4.derived_subgroup()
    v4 = normal_closure(sym4, [next(i for i in range(24) if element_order(i, sym4.mul, 0) == 2 and k.mask[i])])
    rep = comm_congruence_sweep(k, v4, k, None)
    assert rep.holds and rep.swept == k.order**3 * v4.order


def test_comm_congruence_preconditions(sym4):
    k = sym4.derived_subgroup()
    swap = closure(sym4, [1])
    assert not swap.is_normal
    for args in ((swap, k, k), (k, swap, k), (k, k, swap)):
        with pytest.raises(NotNormal):
            comm_congruence_sweep(*args, None)
