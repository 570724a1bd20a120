"""Lower central series, derived series, normal closures and conjugacy
classes against `sympy.combinatorics`, an implementation that shares no code
with verba.

Subgroups and classes of the symmetric and alternating groups are compared as
sets of permutations, through `perm_images`.  sympy composes permutations
left to right and verba right to left, but a subgroup generated by the same
permutations is the same set either way, and so is a conjugacy class.  verba builds its dihedral groups
from a formula, with no permutations, so there the terms of each series are
compared by order.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

combinatorics = pytest.importorskip("sympy.combinatorics")

from verba.groups import builtin_group, load_group_file, normal_closure  # noqa: E402
from verba.verbal import value_set, verbal_subgroup  # noqa: E402
from verba.words import delta, gamma  # noqa: E402

# the generators of tests/groups/dgap1920.perm, in its 1-based cycles
DGAP_CYCLES = ([[1, 9, 3, 8], [2, 10, 6, 7], [4, 5]], [[1, 3, 6, 2], [4, 8, 9], [5, 10, 7]])
GROUPS = ("sym:3", "sym:4", "sym:5", "sym:6", "alt:4", "alt:5", "alt:6")
DIHEDRAL = tuple(range(3, 9))


def _as_sympy(spec):
    """verba's group and sympy's group of the same name, built independently."""
    G = builtin_group(spec)
    kind, n = spec.split(":")
    named = {"sym": combinatorics.SymmetricGroup, "alt": combinatorics.AlternatingGroup}
    H = named[kind](int(n))
    assert _verba_set(G, G.full_subgroup()) == _sympy_set(H)
    return G, H, int(n)


def _verba_set(G, sub):
    return {G.perm_images[int(i)] for i in sub.elements}


def _sympy_set(H):
    return {tuple(p.array_form) for p in H.generate()}


def _series_at(series, i):
    """Term i of a sympy series, which stops once it is stable."""
    return series[min(i, len(series) - 1)]


@pytest.mark.parametrize("spec", GROUPS)
def test_lower_central_series_matches_sympy(spec):
    G, H, _ = _as_sympy(spec)
    lcs = H.lower_central_series()
    for i in (1, 2, 3):
        ours = verbal_subgroup(gamma(i), [G.full_subgroup()] * i)
        assert _verba_set(G, ours) == _sympy_set(_series_at(lcs, i - 1)), (spec, i)


@pytest.mark.parametrize("spec", GROUPS)
def test_derived_series_matches_sympy(spec):
    G, H, _ = _as_sympy(spec)
    ds = H.derived_series()
    for k in (0, 1, 2):
        ours = verbal_subgroup(delta(k), [G.full_subgroup()] * 2**k)
        assert _verba_set(G, ours) == _sympy_set(_series_at(ds, k)), (spec, k)


@pytest.mark.parametrize("spec", GROUPS)
def test_normal_closures_match_sympy(spec):
    G, H, degree = _as_sympy(spec)
    for index in (1, G.order // 2, G.order - 1):
        g = combinatorics.Permutation(list(G.perm_images[index]), size=degree)
        ours = normal_closure(G, [index])
        assert _verba_set(G, ours) == _sympy_set(H.normal_closure(g)), (spec, index)


@pytest.mark.parametrize("spec", GROUPS)
def test_conjugacy_classes_match_sympy(spec):
    G, H, _ = _as_sympy(spec)
    ours = {
        frozenset(G.perm_images[int(i)] for i in np.flatnonzero(G.class_union([a])))
        for a in range(G.order)
    }
    theirs = {frozenset(tuple(p.array_form) for p in c) for c in H.conjugacy_classes()}
    assert ours == theirs


@pytest.mark.parametrize("n", DIHEDRAL)
def test_dihedral_series_orders_match_sympy(n):
    G = builtin_group(f"dih:{n}")
    H = combinatorics.DihedralGroup(n)
    assert G.order == H.order() == 2 * n
    full = G.full_subgroup()
    lcs, ds = H.lower_central_series(), H.derived_series()
    for i in (1, 2, 3):
        ours = verbal_subgroup(gamma(i), [full] * i)
        assert ours.order == _series_at(lcs, i - 1).order(), (n, i)
    for k in (0, 1, 2):
        ours = verbal_subgroup(delta(k), [full] * 2**k)
        assert ours.order == _series_at(ds, k).order(), (n, k)


def _keys(P):
    """Each row of the permutation array P, degree at most 10, as one integer."""
    return P @ 10 ** np.arange(P.shape[-1], dtype=np.int64)


def _commutator_keys(P, block=128):
    """The keys of every a^-1 b^-1 a b over rows a, b of P, with x o y taken
    as x[y], a block of rows a against all rows b at a time."""
    n, d = P.shape
    inv = np.argsort(P, axis=1)
    found = set()
    for start in range(0, n, block):
        a, a_inv = P[start : start + block, None], inv[start : start + block, None]
        shape = (a.shape[0], n, d)
        t = np.take_along_axis(np.broadcast_to(a_inv, shape), np.broadcast_to(inv, shape), -1)
        t = np.take_along_axis(t, np.broadcast_to(a, shape), -1)
        t = np.take_along_axis(t, np.broadcast_to(P, shape), -1)
        found.update(np.unique(_keys(t)).tolist())
    return found


def test_dgap1920_commutator_sets_match_sympy_and_a_numpy_mesh():
    """The delta:2 gap group.  sympy gives |G| = 1920 and |G'| = |G''| =
    960, and a full mesh of numpy permutation arrays gives Com(G) = G' and
    |Com(G')| = 840, so delta:2 over G takes 840 of the 960 elements of its
    verbal subgroup.  verba's value sets of [x1,x2] over (G, G) and (G', G')
    are the same sets of permutations."""
    H = combinatorics.PermutationGroup(
        [combinatorics.Permutation([[p - 1 for p in c] for c in cyc], size=10) for cyc in DGAP_CYCLES]
    )
    D = H.derived_subgroup()
    assert (H.order(), D.order(), D.derived_subgroup().order()) == (1920, 960, 960)
    whole, derived = (np.array([p.array_form for p in K.generate()]) for K in (H, D))
    com_whole, com_derived = _commutator_keys(whole), _commutator_keys(derived)
    assert com_whole == set(_keys(derived).tolist()) and len(com_derived) == 840
    G = load_group_file(str(Path(__file__).parent / "groups" / "dgap1920.perm"))
    images = np.array(G.perm_images)
    for N, com in ((G.full_subgroup(), com_whole), (G.derived_subgroup(), com_derived)):
        assert set(_keys(images[value_set(gamma(2), [N, N]).values]).tolist()) == com
