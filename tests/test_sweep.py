"""The one first-failure sweep, `ProductSpace.first_failure`, and the gap group.

Every exhaustive tuple search (linearity and the raw witness search)
reports the first tuple, in row-major order, at which its predicate fails;
Lemmas 2.5, 2.6 and 3.2 are decided from value sets and walk no tuples, and
Lemma 2.8 by one linearity check and one value set.  These tests pin that
the answer does not depend on the block size, that the streamed kernels
(`mesh`, the breadth-first `_ball` and the witness search) agree with
full-mesh and set-arithmetic oracles at every block size and hold one block
of memory, and pin the gap group
`tests/groups/gap512.perm`, on which the value sets of gamma:2 and gamma:3
are smaller than their verbal subgroups, through its suite golden and cheap
sweep rows, and the group `tests/groups/dgap1920.perm` of order 1920, on
which the value set of delta:2 is smaller than its verbal subgroup, through
the same golden.
"""

from __future__ import annotations

import itertools
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import verba.harness as harness
import verba.verbal as verbal
from verba import enumeration
from verba.cli import main
from verba.enumeration import ProductSpace
from verba import groups
from verba.groups import (
    Subset,
    builtin_group,
    closure,
    commutator_subgroup,
    evaluate,
    mesh,
    star_power,
)
from verba.harness import CheckSpec, resolve_group, run_check
from verba.verbal import (
    check_linearity,
    comm_congruence_sweep,
    enumerate_values,
    value_set,
)
from verba.words import Commutator, gamma, parse_word, variables

from .oracles import close_under_products, star_power_by_sets, table_ops

REPO = Path(__file__).resolve().parents[1]
GAP_GROUP = "tests/groups/gap512.perm"
DGAP_GROUP = "tests/groups/dgap1920.perm"
# every check id but T2.10, whose gamma:3 G,G,G row needs more than the default
# budget on this group
GAP_IDS = "L2.1,L2.2,L2.3,L2.5,L2.6,L2.8,T2.11-bound,C2.12,C2.13,L3.2,T3.6,T3.7-bound,C3.8,C3.9,CONJ"


# ---------------------------------------------------------------------------
# first_failure
# ---------------------------------------------------------------------------


def _first_false_by_product(axes, holds_at):
    """Flat index of the first tuple of itertools.product(*axes) at which
    the scalar predicate is False, or None."""
    for flat, point in enumerate(itertools.product(*axes)):
        if not holds_at(point):
            return flat
    return None


@pytest.mark.parametrize("block", [7, enumeration.BLOCK, 1 << 20])
def test_first_failure_matches_itertools_product(monkeypatch, block):
    monkeypatch.setattr(enumeration, "BLOCK", block)
    rng = np.random.default_rng(16)
    checked = 0
    # sizes on, just past and just short of a multiple of 7, and empty
    for shape in [(5,), (2, 4), (3, 5), (3, 4), (2, 3, 5), (4, 1, 6), (7, 7), (3, 0, 2)]:
        axes = [rng.permutation(20)[:n].astype(np.int64) for n in shape]
        space = ProductSpace(axes)
        size = int(np.prod(shape))
        # no failure, and failures at each block edge and at the last tuple
        for target in {None, 0, 6, 7, 8, 13, 14, size - 1}:
            if target is not None and not 0 <= target < size:
                continue
            bad = None if target is None else space.tuple_at(target)

            def holds(cols, bad=bad):
                if bad is None:
                    return np.ones(cols[0].shape, dtype=bool)
                return ~np.all([c == b for c, b in zip(cols, bad)], axis=0)

            expected = _first_false_by_product(axes, lambda p, bad=bad: p != bad)
            assert space.first_failure(holds) == expected == target, (shape, target)
            checked += 1
        # a predicate failing on many tuples reports the first of them
        def parity(cols):
            return sum(cols) % 3 != 0

        expected = _first_false_by_product(axes, lambda p: sum(p) % 3 != 0)
        assert space.first_failure(parity) == expected, shape
    assert checked > 30


def _at_block_sizes(monkeypatch, run, expected=None):
    """`run()` at the default block size and at 7, which puts a block
    boundary inside every space with more than 7 tuples and between the
    rows of every mesh with more than 7 cells; with `expected`, each run
    must return it."""
    default = run()
    monkeypatch.setattr(enumeration, "BLOCK", 7)
    small = run()
    if expected is not None:
        assert default == expected and small == expected
    return default, small


def test_failing_linearity_does_not_depend_on_the_block_size(monkeypatch):
    sym3, sym4 = builtin_group("sym:3"), builtin_group("sym:4")
    v4 = commutator_subgroup(sym4.derived_subgroup(), sym4.derived_subgroup())
    cases = [
        (gamma(2), [sym3.full_subgroup()] * 2, 2, sym3.trivial_subgroup()),
        (gamma(3), [sym4.full_subgroup()] * 3, 3, v4),
    ]

    def run():
        return [check_linearity(w, subs, pos, modulus) for w, subs, pos, modulus in cases]

    default, small = _at_block_sizes(monkeypatch, run)
    assert all(not rep.holds for rep in default)
    assert [(r.space, r.counterexample) for r in default] == [
        (r.space, r.counterexample) for r in small
    ]
    assert max(r.space for r in default) > 7


def test_failing_comm_congruence_does_not_depend_on_the_block_size(monkeypatch):
    """With [K,N,K] alone as the modulus Lemma 2.8 fails on heis:3 with
    K = L = N = G."""
    G = builtin_group("heis:3")
    full = G.full_subgroup()
    monkeypatch.setattr(
        verbal,
        "comm_congruence_modulus",
        lambda K, L, N, budget=None: commutator_subgroup(commutator_subgroup(K, N), K),
    )

    def run():
        return comm_congruence_sweep(full, full, full, None)

    default, small = _at_block_sizes(monkeypatch, run)
    assert not default.holds
    assert (default.counterexample, default.swept) == (small.counterexample, small.swept)
    assert default.swept > 7


def test_raw_witnesses_do_not_depend_on_the_block_size(monkeypatch):
    """A word with a repeated variable takes its witnesses from the raw
    assignment space."""
    G = builtin_group("sym:4")
    full = G.full_subgroup()
    vs = value_set(parse_word("x1*x2*x1"), [full, full])

    def run():
        return [vs.witness(v) for v in vs.values]

    default, small = _at_block_sizes(monkeypatch, run)
    assert default == small and vs.size > 7


# ---------------------------------------------------------------------------
# streamed kernels
# ---------------------------------------------------------------------------


def _group_at(spec):
    """A freshly built group, so no memo carries a result between block sizes."""
    return resolve_group(str(REPO / spec) if spec == GAP_GROUP else spec)


@pytest.mark.parametrize("spec", ["sym:6", GAP_GROUP, "alt:5", "heis:5", "dih:30"])
def test_mesh_matches_the_full_mesh_at_every_block_size(monkeypatch, spec):
    G = _group_at(spec)
    rng = np.random.default_rng(23)
    # single rows and columns, a last row block cut short at 7 cells (5 x 3
    # is rows 2, 2, 1), rows wider than a block, and an empty side
    shapes = [(1, 1), (5, 3), (9, 2), (40, 50), (G.order, 11), (3, G.order), (0, 4)]
    pairs = [(rng.choice(G.order, a, replace=False), rng.choice(G.order, b, replace=False))
             for a, b in shapes]
    ops = [G.mul_arr, G.comm_arr]
    expected = [np.unique(op(a[:, None], b[None, :])).tolist() for op in ops for a, b in pairs]
    _at_block_sizes(
        monkeypatch,
        lambda: [mesh(G, op, a, b, None, "mesh").tolist() for op in ops for a, b in pairs],
        expected,
    )


@pytest.mark.parametrize("spec", ["sym:4", "alt:5", "heis:3", "dih:12", GAP_GROUP])
def test_ball_closure_and_star_power_match_set_oracles_at_every_radius(monkeypatch, spec):
    G = _group_at(spec)
    t, inv = table_ops(G.table)
    mul, inverse = (lambda a, b: int(t[a, b])), (lambda a: int(inv[a]))
    rng = np.random.default_rng(11)
    seeds = [[], [0], *(sorted(rng.choice(G.order, k, replace=False).tolist()) for k in (1, 2, 3))]
    expected = []
    for seed in seeds:
        whole = sorted(close_under_products(set(seed) | {0}, mul, inverse))
        balls = [sorted(star_power_by_sets(G.table, seed, 0))]
        while balls[-1] != whole:  # every radius until the ball closes, and one more
            balls.append(sorted(star_power_by_sets(G.table, seed, len(balls))))
        balls.append(whole)
        expected.append((whole, whole, balls))

    def run():
        H = _group_at(spec)
        out = []
        for seed, (_, _, balls) in zip(seeds, expected):
            S = H.subset(seed)
            ball = np.flatnonzero(groups._ball(H, S.elements)).tolist()
            stars = [star_power(H, S, n).elements.tolist() for n in range(len(balls))]
            out.append((ball, closure(H, seed).elements.tolist(), stars))
        return out

    _at_block_sizes(monkeypatch, run, expected)


def _full_mesh_witness(op, sides, value):
    """The witness of `value` for a product or commutator of distinct
    variables with these ascending value arrays: partial products from full
    `np.unique` meshes, then the first row-major hit in each full mesh, from
    the last side back to the first."""
    lefts = sides[:1]
    for side in sides[1:-1]:
        lefts.append(np.unique(op(lefts[-1][:, None], side[None, :])))
    picks = []
    for left, right in zip(reversed(lefts), reversed(sides[1:])):
        flat = int(np.flatnonzero(op(left[:, None], right[None, :]).ravel() == value)[0])
        picks.append(int(right[flat % right.size]))
        value = int(left[flat // right.size])
    return [value, *reversed(picks)]


@pytest.mark.parametrize("spec", ["sym:4", "alt:5", "dih:12"])
def test_witnesses_match_the_full_mesh_search_at_every_block_size(monkeypatch, spec):
    words = [parse_word(w) for w in ("x1*x2", "[x1,x2]", "x1*x2*x3", "x1*x2*x3*x4")]
    G = _group_at(spec)
    rng = np.random.default_rng(5)
    # sides of 2 and 3 values put two or three rows in a block of 7 cells
    sizes = [(3, 2, 4, 3)[: len(variables(w))] for w in words]
    picks = [[sorted(rng.choice(G.order, k, replace=False).tolist()) for k in ks] for ks in sizes]
    expected = []
    for w, elems in zip(words, picks):
        op = G.comm_arr if isinstance(w, Commutator) else G.mul_arr
        sides = [np.array(e) for e in elems]
        vals = value_set(w, [G.subset(e) for e in elems]).values.tolist()
        expected.append([_full_mesh_witness(op, sides, v) for v in vals])

    def run():
        H = _group_at(spec)
        out = []
        for w, elems in zip(words, picks):
            vs = value_set(w, [H.subset(e) for e in elems])
            found = [vs.witness(v) for v in vs.values]
            assert all(evaluate(w, H, f) == v for f, v in zip(found, vs.values))
            out.append([list(f.values()) for f in found])
        return out

    _at_block_sizes(monkeypatch, run, expected)


def _peak_mb(run) -> float:
    """Peak MB that `run()` allocates, as tracemalloc sees it: numpy reports
    its array buffers there."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_exhaustive_kernels_hold_one_block_of_memory():
    # 120^3 tuples swept, and a 720 x 720 commutator mesh (formula, no table)
    sym5, sym6 = builtin_group("sym:5"), builtin_group("sym:6")
    env = {v: sym5.full_subgroup() for v in variables(gamma(3))}
    sym5.comm_arr(0, 0)  # the commutator table is the group's, built before
    assert _peak_mb(lambda: enumerate_values(gamma(3), env, None)) < 8
    elems = sym6.full_subgroup().elements
    assert _peak_mb(lambda: mesh(sym6, sym6.comm_arr, elems, elems, None, "commutator mesh")) < 2


# ---------------------------------------------------------------------------
# the gap group
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def gap512():
    return resolve_group(str(REPO / GAP_GROUP))


# details recorded before the sweeps shared `first_failure`; the L2.5 rows
# are in the gap golden as well
GAP_SWEEP_ROWS = [
    ("L2.5", "gamma:2", "G,G", "101376 collapsed tuples over 2 positions"),
    ("L2.5", "gamma:2", "derived,derived", "19456 collapsed tuples over 2 positions"),
    ("L2.5", "gamma:2", "center,center", "2048 collapsed tuples over 2 positions"),
    ("L2.5", "gamma:2", "G,derived", "60416 collapsed tuples over 2 positions"),
    ("L2.5", "gamma:2", "ncl(468),ncl(264)", "68608 collapsed tuples over 2 positions"),
    ("L2.8", "-", "G,G,G", "|K|=512 |L|=512 |N|=512 modulus=64 (68719476736 tuples)"),
    ("L2.8", "-", "center,center,center", "|K|=2 |L|=2 |N|=2 modulus=1 (16 tuples)"),
    ("T2.10", "gamma:1", "G", "1 factors, orders [64, 512]"),
    ("T2.10", "gamma:1", "ncl(468)", "1 factors, orders [16, 256]"),
    ("T2.10", "gamma:2", "G,G", "2 factors, orders [1, 32, 64]"),
    ("T2.10", "gamma:2", "G,derived", "2 factors, orders [1, 8, 32]"),
    ("T2.10", "gamma:2", "ncl(468),ncl(264)", "2 factors, orders [1, 16, 64]"),
]


@pytest.mark.parametrize("check_id, word, tup, detail", GAP_SWEEP_ROWS)
def test_gap_group_sweep_rows(gap512, check_id, word, tup, detail):
    row = run_check(CheckSpec(check_id, GAP_GROUP, word, tup), G=gap512)
    assert (row.status, row.detail) == ("pass", detail)


def _gap_suite(tmp_path, ids=GAP_IDS, code=0):
    """The suite's CSV on the gap catalog at seed 0, run from the repository
    root: the group column is the catalog's relative path."""
    out = tmp_path / "gap.csv"
    argv = ["suite", "--catalog", "tests/groups/gap_catalog.txt", "--ids", ids]
    assert main(argv + ["--seed", "0", "--format", "csv", "--out", str(out)]) == code
    return out.read_text(encoding="utf-8")


def test_gap_suite_matches_the_golden(tmp_path, monkeypatch):
    monkeypatch.chdir(REPO)
    golden = (REPO / "tests" / "golden" / "suite_gap_seed0.csv").read_text(encoding="utf-8")
    assert _gap_suite(tmp_path) == golden
    *rows, summary = golden.splitlines()[1:]
    assert summary == "277 checks: pass=277" and all(",pass," in r for r in rows)
    # the gap: value sets smaller than the verbal subgroups they generate
    assert 'C2.12,tests/groups/gap512.perm,gamma:2,"G,G",exhaustive,pass,m=62 |w(N)|=64' in rows
    assert 'C2.12,tests/groups/gap512.perm,gamma:3,"G,G,G",exhaustive,pass,m=30 |w(N)|=32' in rows
    # on dgap1920 the commutators of G' miss 120 of its 960 elements, so
    # delta:2 over G gaps as [x1,x2] over G' does
    assert 'C3.8,tests/groups/dgap1920.perm,delta:1,"derived,derived",exhaustive,pass,m=840 |w(N)|=960' in rows
    row = run_check(CheckSpec("C3.8", DGAP_GROUP, "delta:2", "G,G,G,G"))
    assert (row.status, row.detail) == ("pass", "m=840 |w(N)|=960")


def test_readme_regenerates_the_gap_golden_with_its_ids():
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    command = re.search(r"verba suite --catalog tests/groups/gap_catalog\.txt[^`]*", readme)
    assert command and re.findall(r"--ids (\S+)", command.group()) == [GAP_IDS]


def test_l25_budget_limits_the_value_sets_it_builds(capsys, monkeypatch):
    """Lemma 2.5 builds one value set per position, and the budget limits
    each combination it builds, not the collapsed space it covers: walking
    position 1 here would take 25952256 tuples."""
    monkeypatch.chdir(REPO)
    argv = ["check", "L2.5", "--group", GAP_GROUP, "--word", "gamma:3", "--tuple", "G,G,G"]
    assert main(argv + ["--budget", "1000000"]) == 0
    assert "51910650 collapsed tuples over 3 positions" in capsys.readouterr().out


def test_c2_12_gap_rows_see_a_value_set_taken_for_its_closure(tmp_path, monkeypatch):
    """A seeded fault: C2.12 compares the value set itself, not the subgroup
    it generates, with the verbal subgroup.  The two differ exactly on the
    gap rows, so those rows fail and the others still pass."""
    monkeypatch.chdir(REPO)
    real = harness.closure
    monkeypatch.setattr(
        harness, "closure", lambda G, seed: seed if isinstance(seed, Subset) else real(G, seed)
    )
    *rows, _ = _gap_suite(tmp_path, "C2.12", code=1).splitlines()[1:]
    failed = [r for r in rows if ",fail," in r]
    assert len(failed) == 7 and len(rows) == 19
    assert 'C2.12,tests/groups/dgap1920.perm,gamma:2,"derived,derived",exhaustive,fail,m=840 |w(N)|=840' in failed
    assert 'C2.12,tests/groups/gap512.perm,gamma:2,"G,G",exhaustive,fail,m=62 |w(N)|=62' in failed
    assert 'C2.12,tests/groups/gap512.perm,gamma:3,"G,G,G",exhaustive,fail,m=30 |w(N)|=30' in failed


def test_conj_and_c38_gap_rows_see_a_value_set_taken_for_its_closure(monkeypatch):
    """The seeded fault above, on CONJ and C3.8: on dgap1920 exactly the
    rows with m = 840 < 960 fail, each probe word among them, and on sym:4,
    where every value set is its verbal subgroup, no row does."""
    monkeypatch.chdir(REPO)
    real = harness.closure
    monkeypatch.setattr(
        harness, "closure", lambda G, seed: seed if isinstance(seed, Subset) else real(G, seed)
    )
    rows = harness.run_suite([DGAP_GROUP, "sym:4"], ids=["CONJ", "C3.8"]).rows
    failed = [r for r in rows if r.status == "fail"]
    assert all(r.group == DGAP_GROUP and r.detail == "m=840 |w(N)|=840" for r in failed)
    assert {r.check_id for r in failed} == {"CONJ", "C3.8"}
    assert {r.word for r in failed if r.check_id == "CONJ"} == set(harness.PROBE_WORDS)
    assert len(failed) == 6 and any(r.group == "sym:4" for r in rows)
    row = run_check(CheckSpec("C3.8", DGAP_GROUP, "delta:2", "G,G,G,G"))
    assert (row.status, row.detail) == ("fail", "m=840 |w(N)|=840")
