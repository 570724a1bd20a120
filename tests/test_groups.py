"""Group engine: construction, validation, closures, subgroup arithmetic."""

from __future__ import annotations

import ast
import functools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from verba.errors import (
    BadIndex,
    BudgetExceeded,
    NotAGroup,
    NotNormalSubset,
    OrderCapExceeded,
    ProductNotSubgroup,
    UnassignedVariable,
    UnknownSpec,
)
from verba import enumeration, groups
from verba.groups import (
    Subset,
    builtin_group,
    closure,
    commutator_of_subsets,
    commutator_subgroup,
    cycles_str,
    direct_product,
    evaluate,
    evaluate_arrays,
    group_from_cayley,
    group_from_permutations,
    load_group_file,
    normal_closure,
    parse_cycles,
    quotient,
    star_power,
    subgroup_product,
)
from verba.harness import DEFAULT_CATALOG
from verba.verbal import class_generating_subset, value_set
from verba.words import delta, gamma, reduce_word, variables, xvar

from .oracles import (
    alt_elements,
    close_under_products,
    commutator_closure,
    conjugacy_classes,
    dih_element,
    dih_mul,
    evaluate_letters,
    heis_element,
    heis_mul,
    is_class_union,
    normal_subgroups,
    perm_inv,
    perm_mul,
    perm_products,
    quat_inv,
    quat_mul,
    sym_elements,
    table_ops,
)
from .test_words import _any_word

# order-5 loop: Latin, identity, two-sided inverses, (1*1)*2 != 1*(1*2)
NONASSOC_LOOP = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 4, 0, 1, 3],
    [3, 2, 4, 0, 1],
    [4, 3, 1, 2, 0],
]


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------


def test_trivial_and_c2_tables():
    assert group_from_cayley([[0]]).order == 1
    c2 = group_from_cayley([[0, 1], [1, 0]])
    assert c2.order == 2 and c2.inv(1) == 1


def test_non_latin_rejected():
    with pytest.raises(NotAGroup):
        group_from_cayley([[0, 0], [1, 1]])


def test_spec_3x3_rejected():
    with pytest.raises(NotAGroup):
        group_from_cayley([[0, 1, 2], [2, 0, 1], [1, 2, 0]])


def test_nonassociative_loop_rejected_with_witness():
    with pytest.raises(NotAGroup) as err:
        group_from_cayley(NONASSOC_LOOP)
    a, b, c = err.value.witness
    t = NONASSOC_LOOP
    assert t[t[a][b]][c] != t[a][t[b][c]]


def test_nonassociative_table_of_order_2000_rejected():
    # Z_2000 with one intercalate swapped stays a Latin square with identity
    # and inverses, but (2*3)*1 != 2*(3*1); a sampled check misses it
    n = 2000
    t = (np.arange(n)[:, None] + np.arange(n)[None, :]) % n
    t[2, 3], t[2, 1003] = t[2, 1003], t[2, 3]
    t[1002, 3], t[1002, 1003] = t[1002, 1003], t[1002, 3]
    assert (np.sort(t, axis=0) == np.arange(n)[:, None]).all()  # still Latin
    with pytest.raises(NotAGroup) as err:
        group_from_cayley(t)
    a, b, c = err.value.witness
    assert t[t[a, b], c] != t[a, t[b, c]]


def test_identity_relocated_to_zero():
    # C3 written with identity at index 2
    table = [[1, 2, 0], [2, 0, 1], [0, 1, 2]]
    g = group_from_cayley(table)
    assert g.order == 3
    assert all(g.mul(0, a) == a == g.mul(a, 0) for a in range(3))


def _malformed_tables():
    """(table, message, witness) for each way validation refuses a table,
    the messages as the whole-table checks gave them."""
    n = 12
    z = (np.arange(n)[:, None] + np.arange(n)[None, :]) % n
    row = z.copy()
    row[7, 2] = row[7, 3]
    col = z.copy()
    col[3, [5, 9]] = col[3, [9, 5]]
    # an intercalate through the 0s at (4, 8) and (10, 2): 2, 4, 8 and 10
    # keep a one-sided inverse each
    inv = z.copy()
    inv[4, [8, 2]] = inv[4, [2, 8]]
    inv[10, [2, 8]] = inv[10, [8, 2]]
    rng = z.copy()
    rng[9, 4] = n
    left_only = z[[0, 2, 1] + list(range(3, n))]  # row 0 is a left identity only
    return [
        (row, "row 7 is not a permutation (not a Latin square)", (7,)),
        (col, "column 5 is not a permutation (not a Latin square)", (5,)),
        ((np.arange(n)[:, None] - np.arange(n)[None, :]) % n, "no two-sided identity element", ()),
        (left_only, "no two-sided identity element", ()),
        (inv, "element 2 has no two-sided inverse", (2,)),
        (rng, "entry at (9, 4) outside 0..11", (9, 4)),
        (NONASSOC_LOOP, "associativity fails on (1,1,2)", (1, 1, 2)),
    ]


@pytest.mark.parametrize("cells", [1, 30, 100, enumeration.BLOCK, 1 << 20])
def test_validation_verdicts_do_not_depend_on_the_block_size(monkeypatch, cells):
    monkeypatch.setattr(enumeration, "BLOCK", cells)
    for table, message, witness in _malformed_tables():
        with pytest.raises(NotAGroup) as err:
            groups._validate_table(np.asarray(table))
        assert (str(err.value), err.value.witness) == (message, witness)
    # Z_12 with its identity at index 9, in the last block of every size
    z = (np.arange(12)[:, None] + np.arange(12)[None, :]) % 12
    swap = np.arange(12)
    swap[[0, 9]] = [9, 0]
    moved = np.empty_like(z)
    moved[swap[:, None], swap[None, :]] = swap[z]
    assert (groups._validate_table(moved) == z).all()


def test_entries_too_large_for_int32_or_int64_are_rejected():
    # range-checked before the int32 cast, where 2**32 + 1 would wrap to 1
    for big in (2**32 + 1, 2**63, 2**64):
        with pytest.raises(NotAGroup) as err:
            group_from_cayley([[0, big], [1, 0]])
        assert (str(err.value), err.value.witness) == ("entry at (0, 1) outside 0..1", (0, 1))


def test_tables_that_are_not_integer_arrays_are_rejected():
    # 1.5 would truncate to 1 in the int32 cast and pass as C2
    for table in ([[0, 1.5], [1, 0]], [[0, 1], [1]], [[0, "1"], [1, 0]], [[0, None], [1, 0]]):
        with pytest.raises(NotAGroup, match="must be an array of integers"):
            group_from_cayley(table)
    assert group_from_cayley([[0.0, 1.0], [1.0, 0.0]]).order == 2


def _sym4_mod_v4():
    S4 = builtin_group("sym:4")
    return quotient(normal_closure(S4, [S4.perm_images.index((1, 0, 3, 2))]))[1]


BUILT_GROUPS = {
    spec: functools.partial(builtin_group, spec)
    for spec in DEFAULT_CATALOG + ("sym:5", "sym:6", "alt:5", "alt:6")
}
for _name in ("gap512.perm", "dgap1920.perm"):
    BUILT_GROUPS[_name] = functools.partial(load_group_file, str(Path(__file__).parent / "groups" / _name))
BUILT_GROUPS["dih:4 x alt:4"] = lambda: direct_product(builtin_group("dih:4"), builtin_group("alt:4"))
BUILT_GROUPS["sym:4/V4"] = _sym4_mod_v4


@pytest.mark.parametrize("name", list(BUILT_GROUPS))
def test_every_built_table_passes_validation_unrelabelled(name):
    # builders are trusted and not validated, so each is checked here
    G = BUILT_GROUPS[name]()
    assert np.array_equal(groups._validate_table(G.table), G.table)


@pytest.mark.parametrize("name", list(BUILT_GROUPS))
def test_one_element_name_is_its_entry_in_the_full_list(name):
    G = BUILT_GROUPS[name]()
    stored = G._names is not None
    one_by_one = [G.element_name(i) for i in range(G.order)]
    assert (G._names is not None) == stored  # naming one element stores no list
    assert one_by_one == G.element_names


def test_permutation_closure_s3():
    g = group_from_permutations([(1, 0, 2), (1, 2, 0)], 3)
    assert g.order == 6


def test_permutation_closure_empty_and_cycle():
    assert group_from_permutations([], 3).order == 1
    seven = tuple(list(range(1, 7)) + [0])
    assert group_from_permutations([seven], 7).order == 7


def test_light_test_catches_a_corrupt_table(sym4):
    groups._check_associativity(np.array(sym4.table), 0)  # the true table passes
    # one corrupted cell, tested directly by Light's test
    bad = np.array(sym4.table)
    bad[5, 7] = (bad[5, 7] + 1) % 24
    with pytest.raises(NotAGroup) as err:
        groups._check_associativity(bad, 0)
    x, g, y = err.value.witness
    assert bad[bad[x, g], y] != bad[x, bad[g, y]]
    with pytest.raises(NotAGroup):
        groups._validate_table(bad)
    # an intercalate swap keeps the Latin square, identity and inverses:
    # rows a and a*u, columns c and u*c, for an involution u, away from
    # the identity's row, column and cells
    u = sym4.perm_images.index((1, 0, 2, 3))
    a, c = next(
        (a, c)
        for a in range(1, 24)
        for c in range(1, 24)
        if 0 not in (sym4.mul(a, u), sym4.mul(u, c), sym4.mul(a, c), sym4.mul(sym4.mul(a, u), c))
    )
    b, d = sym4.mul(a, u), sym4.mul(u, c)
    swapped = np.array(sym4.table)
    swapped[a, c], swapped[a, d] = swapped[a, d], swapped[a, c]
    swapped[b, c], swapped[b, d] = swapped[b, d], swapped[b, c]
    assert (np.sort(swapped, axis=0) == np.arange(24)[:, None]).all()
    with pytest.raises(NotAGroup) as err:
        groups._validate_table(swapped)
    x, g, y = err.value.witness
    assert swapped[swapped[x, g], y] != swapped[x, swapped[g, y]]


def test_order_cap():
    swap = (1, 0, 2, 3, 4, 5, 6, 7)
    cyc = tuple(list(range(1, 8)) + [0])
    with pytest.raises(OrderCapExceeded):
        group_from_permutations([swap, cyc], 8, cap=5040)


def test_validation_above_exhaustive_limit():
    # order 720: Light's test over a greedy generating set, no sampling
    table = builtin_group("sym:6").table
    assert table.shape == (720, 720)
    assert np.array_equal(groups._validate_table(table), table)


def test_builtin_orders():
    for spec, order in [
        ("cyc:1", 1),
        ("cyc:12", 12),
        ("dih:4", 8),
        ("sym:4", 24),
        ("alt:4", 12),
        ("quat:8", 8),
        ("heis:3", 27),
        ("cyc:2 x sym:3", 12),
        ("cyc:3 x quat:8", 24),
    ]:
        assert builtin_group(spec).order == order


def test_builtin_product_with_times_sign():
    assert builtin_group("cyc:2 × sym:3").order == 12


def test_builtin_errors():
    with pytest.raises(UnknownSpec):
        builtin_group("frob:20")
    with pytest.raises(UnknownSpec):
        builtin_group("quat:16")
    with pytest.raises(UnknownSpec):
        builtin_group("heis:4")
    with pytest.raises(OrderCapExceeded):
        builtin_group("sym:8")
    for spec in ("cyc:8", "dih:4", "quat:8", "heis:2", "sym:4"):
        with pytest.raises(OrderCapExceeded):
            builtin_group(spec, cap=5)


def test_heisenberg_is_nonabelian_of_exponent_p():
    h = builtin_group("heis:3")
    assert h.derived_subgroup().order == 3
    assert all(h.power(g, 3) == 0 for g in range(h.order))


def test_group_files(tmp_path):
    cayley = tmp_path / "c2.grp"
    cayley.write_text("cayley 2\n0 1\n1 0\n")
    assert load_group_file(str(cayley)).order == 2
    perm = tmp_path / "v4.grp"
    perm.write_text("perm 4 2\n(1 2)(3 4)\n(1 3)(2 4)\n")
    assert load_group_file(str(perm)).order == 4
    with pytest.raises(NotAGroup):
        bad = tmp_path / "bad.grp"
        bad.write_text("wat 3\n")
        load_group_file(str(bad))


def test_cycle_notation_round_trip():
    p = parse_cycles("(1 2)(3 4)", 5)
    assert p == (1, 0, 3, 2, 4)
    assert parse_cycles(cycles_str(p), 5) == p
    with pytest.raises(BadIndex):
        parse_cycles("(1 9)", 5)


def _agl_1_17():
    """AGL(1,17): x -> x+1 and x -> 3x on 0..16 (3 is a primitive root mod 17)."""
    return group_from_permutations(
        [tuple((x + 1) % 17 for x in range(17)), tuple(3 * x % 17 for x in range(17))], 17
    )


def test_permutation_names_are_built_on_first_read():
    fresh = [group_from_permutations(groups._symmetric_gens(n), max(n, 1)) for n in range(1, 7)]
    fresh += [group_from_permutations(groups._alternating_gens(n), n) for n in range(4, 7)]
    for G in fresh + [_agl_1_17()]:
        assert G._names is None
        assert G.element_name(G.order - 1) == cycles_str(G.perm_images[-1])
        assert G.element_names == [cycles_str(p) for p in G.perm_images]
    A, B = builtin_group("sym:3"), builtin_group("cyc:2")
    assert builtin_group("sym:3 x cyc:2").element_names == [
        f"({a},{b})" for a in A.element_names for b in B.element_names
    ]


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def test_evaluate_identity_assignment(quat8):
    word = gamma(2)
    assert evaluate(word, quat8, {xvar(1): 0, xvar(2): 0}) == 0


def test_evaluate_quaternion_against_oracle(quat8):
    word = gamma(2)
    for a in range(8):
        for b in range(8):
            got = evaluate(word, quat8, {xvar(1): a, xvar(2): b})
            na, nb = quat8.element_name(a), quat8.element_name(b)
            expect = quat_mul(quat_mul(quat_inv(na), quat_inv(nb)), quat_mul(na, nb))
            assert quat8.element_name(got) == expect
    i, j = quat8.element_names.index("i"), quat8.element_names.index("j")
    assert quat8.element_name(evaluate(word, quat8, {xvar(1): i, xvar(2): j})) == "-1"


def test_evaluate_delta0_and_missing_var(sym3):
    assert evaluate(delta(0), sym3, {xvar(1): 4}) == 4
    with pytest.raises(UnassignedVariable):
        evaluate(gamma(2), sym3, {xvar(1): 1})


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_evaluate_respects_reduction(sym3, data):
    word = data.draw(_any_word)
    assignment = {v: data.draw(st.integers(0, 5)) for v in variables(word)}
    direct = evaluate(word, sym3, assignment)
    reduced = evaluate_letters(reduce_word(word).letters, assignment, sym3.mul, sym3.inv, 0)
    assert direct == reduced


def test_permutation_table_matches_oracle(sym4):
    # spot-check the Cayley table against independent tuple composition
    images = sym4.perm_images
    for a in (0, 3, 7, 11, 17, 23):
        for b in (0, 5, 10, 15, 20):
            assert images[sym4.mul(a, b)] == perm_mul(images[a], images[b])
            assert images[sym4.inv(a)] == perm_inv(images[a])


@pytest.mark.parametrize(
    "spec", ["sym:3", "sym:4", "sym:5", "sym:6", "alt:4", "alt:5", "alt:6"]
)
def test_permutation_table_matches_composition_in_every_cell(spec):
    G = builtin_group(spec)
    kind, n = spec.split(":")
    elements = sym_elements(int(n)) if kind == "sym" else alt_elements(int(n))
    assert sorted(G.perm_images) == sorted(elements)
    images = np.array(G.perm_images)
    assert (images[G.table] == perm_products(G.perm_images)).all()


AGL_1_17 = [tuple((x + 1) % 17 for x in range(17)), tuple(3 * x % 17 for x in range(17))]


def _cycle_text(p):
    """1-based cycle notation of a permutation tuple, written out here so the
    group file does not depend on `cycles_str`."""
    seen, parts = set(), []
    for start in range(len(p)):
        cycle = []
        while start not in seen:
            seen.add(start)
            cycle.append(str(start + 1))
            start = p[start]
        if len(cycle) > 1:
            parts.append("(" + " ".join(cycle) + ")")
    return "".join(parts)


def test_degree_17_table_matches_composition(tmp_path):
    # AGL(1,17): x -> x+1 and x -> 3x (3 is a primitive root mod 17)
    path = tmp_path / "agl17.grp"
    path.write_text("perm 17 2\n" + "".join(_cycle_text(p) + "\n" for p in AGL_1_17))
    for G in (group_from_permutations(AGL_1_17, 17), load_group_file(str(path))):
        assert G.order == 17 * 16
        assert len(set(G.perm_images)) == G.order
        images = np.array(G.perm_images)
        assert (images[G.table] == perm_products(G.perm_images)).all()


@pytest.mark.parametrize(
    "spec",
    ["heis:2", "heis:3", "heis:5", "heis:7"]
    + [f"dih:{n}" for n in range(1, 9)]
    + ["dih:60", "quat:8"],
)
def test_formula_table_matches_oracle_in_every_cell(spec):
    G = builtin_group(spec)
    kind, n = spec.split(":")
    n = int(n)
    element, mul, order = {
        "heis": (heis_element, heis_mul, n**3),
        "dih": (dih_element, dih_mul, 2 * n),
        "quat": (str, lambda x, y, _: quat_mul(x, y), n),
    }[kind]
    elems = [element(name) for name in G.element_names]
    assert len(set(elems)) == G.order == order
    table = G.table.tolist()
    for a, x in enumerate(elems):
        row = table[a]
        for b, y in enumerate(elems):
            assert elems[row[b]] == mul(x, y, n), (spec, a, b)


# ---------------------------------------------------------------------------
# closures
# ---------------------------------------------------------------------------


def test_closure_examples(quat8, sym3):
    assert closure(quat8, []).order == 1
    i = quat8.element_names.index("i")
    assert closure(quat8, [i]).order == 4
    gens = [sym3.element_names.index("(1 2)"), sym3.element_names.index("(2 3)")]
    assert closure(sym3, gens).order == 6


def test_closure_idempotent_and_monotone(sym4):
    rng = np.random.default_rng(1)
    for _ in range(10):
        seed = list(map(int, rng.integers(0, 24, size=3)))
        h = closure(sym4, seed)
        assert closure(sym4, h.elements) == h
        bigger = closure(sym4, seed + [int(rng.integers(0, 24))])
        assert h <= bigger


def test_normal_closure_examples(sym4, quat8):
    assert normal_closure(sym4, []).order == 1
    three_cycle = sym4.element_names.index("(1 2 3)")
    n = normal_closure(sym4, [three_cycle])
    assert n.order == 12 and n.is_normal
    minus_one = quat8.element_names.index("-1")
    assert normal_closure(quat8, [minus_one]).order == 2


def test_normal_closure_is_conjugation_closed(sym4):
    n = normal_closure(sym4, [1])
    t = sym4.table
    for g in range(sym4.order):
        for h in map(int, n.elements):
            assert n.mask[t[t[sym4.inv(g), h], g]]


# ---------------------------------------------------------------------------
# conjugacy classes and normality
# ---------------------------------------------------------------------------


@functools.cache
def _group(spec):
    return builtin_group(spec)


@functools.cache
def _classes(spec):
    return conjugacy_classes(_group(spec).table)


@pytest.mark.parametrize("spec", DEFAULT_CATALOG + ("sym:5", "heis:5", "dih:60"))
def test_class_partition_matches_oracle(spec):
    G = builtin_group(spec)
    ours = {frozenset(map(int, np.flatnonzero(G.class_union([a])))) for a in range(G.order)}
    assert ours == conjugacy_classes(G.table)


@pytest.mark.parametrize("spec", DEFAULT_CATALOG)
def test_is_normal_matches_oracles_on_subgroups(spec):
    # every normal subgroup, and every cyclic one, normal or not
    G = _group(spec)
    t, inv = table_ops(G.table)
    mul, inverse = (lambda a, b: int(t[a, b])), (lambda a: int(inv[a]))
    normal = normal_subgroups(G.table)
    cyclic = {frozenset(close_under_products({g}, mul, inverse)) for g in range(G.order)}
    for S in normal | cyclic:
        assert G.subset(sorted(S)).is_normal == (S in normal) == is_class_union(_classes(spec), S)


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_is_normal_and_class_union_match_oracle_on_subsets(data):
    spec = data.draw(st.sampled_from(DEFAULT_CATALOG).filter(lambda s: _group(s).order <= 24))
    G, classes = _group(spec), sorted(_classes(spec), key=min)
    # a union of classes, then a few elements toggled, so both verdicts occur
    members = set().union(*data.draw(st.lists(st.sampled_from(classes))))
    members ^= data.draw(st.sets(st.integers(0, G.order - 1), max_size=2))
    assert G.subset(sorted(members)).is_normal == is_class_union(classes, members)
    union = set().union(*(c for c in classes if c & members))
    assert set(map(int, np.flatnonzero(G.class_union(sorted(members))))) == union


def test_seeded_class_faults_flip_normality():
    G = builtin_group("sym:4")  # private: its class labels are corrupted below
    a4, swap = G.derived_subgroup(), closure(G, [G.element_names.index("(1 2)")])
    true = G._memo[("classes", None)]
    transposition, three_cycle = (true[G.element_names.index(c)] for c in ("(1 2)", "(1 2 3)"))
    merged = true.copy()
    merged[merged == transposition] = three_cycle
    G._memo[("classes", None)] = merged
    assert not Subset(G, a4.mask).is_normal
    split = true.copy()
    split[G.element_names.index("(1 2)")] = true.max() + 1
    G._memo[("classes", None)] = split
    assert Subset(G, swap.mask).is_normal
    G._memo[("classes", None)] = true
    assert Subset(G, a4.mask).is_normal and not Subset(G, swap.mask).is_normal


# ---------------------------------------------------------------------------
# star powers
# ---------------------------------------------------------------------------


def test_star_power_examples():
    c6 = builtin_group("cyc:6")
    s = c6.subset([1])
    assert star_power(c6, s, 0).order == 1
    got = star_power(c6, s, 2)
    assert sorted(map(int, got.elements)) == [0, 1, 2, 4, 5]


def test_star_power_monotone_and_bounded(sym4):
    rng = np.random.default_rng(2)
    for _ in range(5):
        s = sym4.subset(map(int, rng.integers(0, 24, size=2)))
        h = closure(sym4, s)
        prev = star_power(sym4, s, 0)
        for n in range(1, 6):
            cur = star_power(sym4, s, n)
            assert bool((prev.mask & ~cur.mask).sum() == 0)
            assert bool((cur.mask & ~h.mask).sum() == 0)
            prev = cur
        assert star_power(sym4, s, sym4.order) == h


# ---------------------------------------------------------------------------
# subgroup arithmetic
# ---------------------------------------------------------------------------


def test_commutator_of_subsets(quat8, sym3):
    full = quat8.full_subgroup()
    assert commutator_of_subsets(quat8, full, full).order == 2
    one = quat8.subset([0])
    assert commutator_of_subsets(quat8, full, one).order == 1
    a3 = sym3.derived_subgroup()
    assert commutator_of_subsets(sym3, a3, a3).order == 1


@pytest.mark.parametrize("spec", list(DEFAULT_CATALOG) + ["sym:5", "sym:6"])
def test_derived_subgroup_matches_the_full_commutator_mesh(spec):
    """The class-representative build against every [a, b] in G x G: its
    seed is all commutators, and below order 720 its closure matches set
    arithmetic.  On sym:6 the commutators of class representatives alone
    reach only 270 of the 360."""
    G = builtin_group(spec)
    D = G.derived_subgroup()
    t, inv = table_ops(G.table)
    a, b = np.meshgrid(np.arange(G.order), np.arange(G.order), indexing="ij")
    assert D.generators == tuple(np.unique(t[t[inv[a], inv[b]], t[a, b]]).tolist())
    if G.order < 720:
        everything = range(G.order)
        assert set(map(int, D.elements)) == commutator_closure(G.table, everything, everything)


def test_derived_subgroup_is_the_commutator_memo_entry(sym4):
    full = sym4.full_subgroup()
    assert sym4.derived_subgroup() is commutator_subgroup(full, full)
    assert "derived" not in {kind for kind, _ in sym4._memo}


@pytest.mark.parametrize(
    "name", ["sym:4", "dih:8", "heis:3", "cyc:3 x quat:8", "sym:6", "gap512.perm", "dgap1920.perm"]
)
def test_commutator_of_subsets_matches_the_full_mesh(name):
    """Every ordered pair from a pool of normal subsets: G, its derived
    subgroup and center, the normal closure of the least element of each
    class, and the class generating subsets of G and G' with their second
    star powers.  Each `set_product`, over `mul_arr` and over `comm_arr`, is
    every distinct value of the full S x T mesh by raw table gathers, and so
    is the seed of [S, T]; below order 720 the elements of [S, T] between
    normal subgroups match set arithmetic, which is symmetric in S and T.  A
    non-normal pair, {1, x} for x outside the center against G, takes the
    full-mesh branch."""
    G = BUILT_GROUPS[name]()
    reps = np.unique(G.class_labels(), return_index=True)[1]
    normals = [G.full_subgroup(), G.derived_subgroup(), G.center()]
    normals += [normal_closure(G, [r]) for r in reps]
    normals = list({S.key: S for S in normals}.values())
    subsets = [class_generating_subset(N) for N in normals[:2]]
    pool = list({S.key: S for S in normals + subsets + [star_power(G, S, 2) for S in subsets]}.values())
    t, inv = table_ops(G.table)
    raw = [(G.mul_arr, lambda a, b: t[a, b]), (G.comm_arr, lambda a, b: t[t[inv[a], inv[b]], t[a, b]])]

    def full_mesh(gathers, S, T):
        seen = np.zeros(G.order, dtype=bool)
        seen[gathers(S.elements[:, None], T.elements[None, :])] = True
        return np.flatnonzero(seen)

    outside = G.subset([0, int(np.flatnonzero(~G.center().mask)[0])])
    assert not outside.is_normal
    pairs = [(S, T) for S in pool for T in pool] + [(outside, G.full_subgroup())]
    oracle = {}
    for S, T in pairs:
        for op, gathers in raw:  # comm_arr last, so `values` is the commutators below
            values = full_mesh(gathers, S, T)
            assert np.array_equal(groups.set_product(G, op, S, T, None, "mesh").elements, values)
        if S is outside:
            continue
        C = commutator_of_subsets(G, S, T)
        assert C.generators == tuple(values.tolist())
        if G.order < 720 and S in normals and T in normals:
            pair = frozenset((S.key, T.key))
            if pair not in oracle:
                oracle[pair] = commutator_closure(G.table, S.elements, T.elements)
            assert set(map(int, C.elements)) == oracle[pair]


def test_commutator_subgroup_is_built_once_per_pair(monkeypatch):
    G = builtin_group("sym:4")  # private: its comm_arr is counted below
    H, K = G.derived_subgroup(), normal_closure(G, [G.element_names.index("(1 2)")])
    calls = []
    real = G.comm_arr
    monkeypatch.setattr(G, "comm_arr", lambda a, b: calls.append(1) or real(a, b))
    first = commutator_subgroup(H, K)
    assert calls and first.order == 12
    calls.clear()
    assert commutator_subgroup(H, K) is first and not calls


@pytest.mark.parametrize(
    "elements, index",
    [([2**70], 2**70), ([-1], -1), ([3, -(2**70), 99], -(2**70)), ([0, 24, 25], 24),
     (np.array([5, 30], dtype=np.int32), 30), (iter([1, 2, 40]), 40)],
)
def test_subset_names_the_first_index_outside_the_group(sym4, elements, index):
    with pytest.raises(BadIndex) as err:
        sym4.subset(elements)
    assert str(err.value) == f"element index {index} outside 0..23"


def test_subset_takes_lists_arrays_and_iterators(sym4):
    for elements in ([], [3, 1, 3], np.array([1, 3], dtype=np.int32), iter((1, 3)), {1, 3}):
        assert set(sym4.subset(elements).elements) <= {1, 3}
    assert sym4.subset(range(24)) == sym4.full_subgroup()


def test_commutator_requires_normal_subsets(quat8):
    i_only = quat8.subset([quat8.element_names.index("i")])
    with pytest.raises(NotNormalSubset):
        commutator_of_subsets(quat8, i_only, quat8.full_subgroup())


def test_subsets_of_another_group_are_rejected(sym3):
    """Unchecked, a sym:3 value set over a cyc:6 entry reads its indices as
    sym:3 elements, one over quat:8 indexes past sym:3, and the commutator
    of a cyc:6 subset with sym:3 is a subset of sym:3 of order 3."""
    cyc6 = builtin_group("cyc:6")
    calls = [
        lambda: value_set(gamma(2), [sym3.full_subgroup(), cyc6.full_subgroup()]),
        lambda: value_set(gamma(2), [sym3.full_subgroup(), builtin_group("quat:8").full_subgroup()]),
        lambda: commutator_of_subsets(sym3, cyc6.full_subgroup(), sym3.full_subgroup()),
        lambda: subgroup_product(sym3.full_subgroup(), cyc6.full_subgroup()),
    ]
    for call in calls:
        with pytest.raises(BadIndex, match="^subset belongs to a different group$"):
            call()


def test_commutator_symmetric(sym4):
    n = normal_closure(sym4, [1])
    d = sym4.derived_subgroup()
    assert commutator_subgroup(n, d) == commutator_subgroup(d, n)


def test_subgroup_product(sym3):
    a3 = sym3.derived_subgroup()
    trivial = sym3.trivial_subgroup()
    assert subgroup_product(a3, trivial) == a3
    assert subgroup_product(a3, a3) == a3
    swap = closure(sym3, [sym3.element_names.index("(1 2)")])
    assert subgroup_product(swap, a3).order == 6


def test_subgroup_product_rejects_nonclosed(sym3):
    h = closure(sym3, [sym3.element_names.index("(1 2)")])
    k = closure(sym3, [sym3.element_names.index("(1 3)")])
    with pytest.raises(ProductNotSubgroup):
        subgroup_product(h, k)


def test_budget_bounds_every_subgroup_mesh(sym3, sym4):
    full, a4 = sym4.full_subgroup(), sym4.derived_subgroup()
    assert commutator_subgroup(full, full, 576) == a4  # a 24 x 24 mesh
    with pytest.raises(BudgetExceeded, match="commutator mesh needs 576 tuples, budget is 575"):
        commutator_subgroup(full, full, 575)
    assert subgroup_product(a4, full, 288) == full
    with pytest.raises(BudgetExceeded, match="subgroup product needs 288 tuples"):
        subgroup_product(a4, full, 287)
    # with neither factor normal, the 4-element set product meshes with itself
    h = closure(sym3, [sym3.element_names.index("(1 2)")])
    k = closure(sym3, [sym3.element_names.index("(1 3)")])
    with pytest.raises(BudgetExceeded, match="subgroup product needs 16 tuples"):
        subgroup_product(h, k, 15)
    with pytest.raises(ProductNotSubgroup):
        subgroup_product(h, k, 16)


def test_subgroup_product_associative_on_normal_pool(sym4):
    pool = [
        sym4.trivial_subgroup(),
        sym4.center(),
        sym4.derived_subgroup(),
        normal_closure(sym4, [1]),
        commutator_subgroup(sym4.derived_subgroup(), sym4.derived_subgroup()),
        sym4.full_subgroup(),
    ]
    for a in pool:
        for b in pool:
            for c in pool:
                left = subgroup_product(subgroup_product(a, b), c)
                right = subgroup_product(a, subgroup_product(b, c))
                assert left == right


def test_direct_product_structure():
    g = direct_product(builtin_group("cyc:2"), builtin_group("sym:3"))
    assert g.order == 12
    assert g.derived_subgroup().order == 3


def test_center(quat8, sym4):
    assert quat8.center().order == 2
    assert sym4.center().order == 1
    c6 = builtin_group("cyc:6")
    assert c6.center().order == 6


@pytest.mark.parametrize("name", DEFAULT_CATALOG + ("sym:6", "gap512.perm"))
def test_center_classes_and_commutators_match_the_oracles(name):
    """The center is every element whose table row equals its column; class
    label c is the c-th oracle class in order of least element; and
    ``comm_arr`` of every pair is a^-1 b^-1 (ab), all from the raw table."""
    G = BUILT_GROUPS[name]()
    t, inv = table_ops(G.table)
    central = {a for a in range(G.order) if (t[a] == t[:, a]).all()}
    assert set(map(int, G.center().elements)) == central
    labels = G.class_labels()
    classes = sorted(conjugacy_classes(G.table), key=min)
    assert labels.max() == len(classes) - 1
    for number, members in enumerate(classes):
        assert set(map(int, np.flatnonzero(labels == number))) == members
    a, b = np.meshgrid(np.arange(G.order), np.arange(G.order), indexing="ij")
    assert np.array_equal(G.comm_arr(a, b), t[t[inv[a], inv[b]], t[a, b]])


def table_reads_outside_finite_group(src: Path) -> list[tuple[str, int]]:
    """(file, line) of every read of a `.table` or `.inverse_table` attribute
    in the modules under `src`, outside the body of `class FiniteGroup`."""
    found = set()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        inside = {
            id(node)
            for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef) and cls.name == "FiniteGroup"
            for node in ast.walk(cls)
        }
        found |= {
            (path.name, node.lineno)
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and node.attr in ("table", "inverse_table")
            and isinstance(node.ctx, ast.Load)
            and id(node) not in inside
        }
    return sorted(found)


def test_only_finite_group_reads_its_table():
    """Everything outside `FiniteGroup` multiplies, inverts and brackets
    through its array methods, so the table format is known in one class."""
    assert table_reads_outside_finite_group(Path(groups.__file__).parent) == []


def test_vectorised_evaluation_matches_scalar(sym4):
    word = delta(2)
    rng = np.random.default_rng(3)
    env = {xvar(i): rng.integers(0, 24, size=50) for i in range(1, 5)}
    batch = evaluate_arrays(word, sym4, env)
    for pos in range(50):
        single = evaluate(word, sym4, {v: int(arr[pos]) for v, arr in env.items()})
        assert single == int(batch[pos])
