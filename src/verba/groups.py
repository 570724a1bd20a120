"""Finite-group engine: dense Cayley tables, bitset subsets, subgroup arithmetic.

Elements are 0-based indices into a group multiplication table, with the
identity always at index 0.  Exhaustive tuple enumeration dominates the
workloads built on top of this module, so everything here is geared towards
O(1) multiplication and vectorised gathers over numpy index arrays.
"""

from __future__ import annotations

import re
from typing import Iterable, Mapping, Sequence

import numpy as np

from .enumeration import require_budget, row_blocks
from .errors import (
    BadIndex,
    NotAGroup,
    NotNormal,
    OrderCapExceeded,
    ProductNotSubgroup,
    UnassignedVariable,
    UnknownSpec,
)
from .words import Power, Product, Var, WordExpr

DEFAULT_ORDER_CAP = 5040
# Groups up to this order keep an n-by-n commutator table (at most 1 MiB of
# int32), so `comm_arr` is one gather instead of five.  Larger groups use the
# formula: at sym:7 the table alone would take about 100 MB.
COMM_TABLE_LIMIT = 512


class FiniteGroup:
    """Group of order n as an n-by-n multiplication table over 0..n-1.

    The table is taken as given, with the identity at 0: every builder here
    makes a group table by construction, and a table from outside enters
    through `group_from_cayley`, the one place tables are validated.
    """

    def __init__(
        self,
        table: np.ndarray,
        label: str = "G",
        element_names: Sequence[str] | None = None,
        perm_images: Sequence[tuple[int, ...]] | None = None,
    ):
        self.table = np.ascontiguousarray(table, dtype=np.int32)
        self.table.setflags(write=False)
        self.order = int(self.table.shape[0])
        self.label = label
        self.inverse_table = _inverse_table(self.table)
        self.inverse_table.setflags(write=False)
        self._names = list(element_names) if element_names is not None else None
        self.perm_images = list(perm_images) if perm_images is not None else None
        # One memo for the life of the group, read and written only by
        # `cached`, holds its value sets, interned sets and the set products
        # of operand pairs (the seeds of [S, T], the value-set pairs and HK),
        # class generating subsets, star powers (closures being those of no
        # radius), quotients, series, parsed tuple specs, commutator table
        # and class labels.
        self._memo: dict = {}

    def cached(self, kind: str, key, build, *args):
        """The stored ``build(*args)`` for ``(kind, key)``, built and stored on
        the first call.  An entry is built in full before it is stored, so
        threads sharing the group never see a partial one, and a build that
        raises stores nothing."""
        out = self._memo.get((kind, key))
        if out is None:
            out = self._memo[(kind, key)] = build(*args)
        return out

    # -- scalar operations ---------------------------------------------------

    identity = 0

    def mul(self, a: int, b: int) -> int:
        return int(self.table[a, b])

    def inv(self, a: int) -> int:
        return int(self.inverse_table[a])

    def comm(self, a: int, b: int) -> int:
        return int(self.comm_arr(a, b))

    def power(self, a: int, e: int) -> int:
        return int(self.pow_arr(a, e))

    # -- array operations, all that code outside this class uses of the table -

    def mul_arr(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self.table[a, b]

    def inv_arr(self, a: np.ndarray) -> np.ndarray:
        return self.inverse_table[a]

    def comm_arr(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        ct = self._commutator_table()
        return _bracket(self, a, b) if ct is None else ct[a, b]

    def _commutator_table(self) -> np.ndarray | None:
        """``ct[a, b] = [a, b]``, built on first use for orders up to
        COMM_TABLE_LIMIT and kept read-only; None above the limit."""
        if self.order > COMM_TABLE_LIMIT:
            return None
        return self.cached("comm_table", None, _full_commutator_table, self)

    def pow_arr(self, a: np.ndarray, e: int) -> np.ndarray:
        """a^e by squaring from the lowest set bit of |e| to the top one, so
        e = 1 gathers nothing and e = -1 only the inverse."""
        base = np.asarray(a)
        if e < 0:
            base, e = self.inverse_table[base], -e
        if not e:
            return np.zeros_like(base)
        while not e & 1:
            base, e = self.table[base, base], e >> 1
        out = base
        while e := e >> 1:
            base = self.table[base, base]
            if e & 1:
                out = self.table[out, base]
        return out

    # -- subsets and naming ----------------------------------------------------

    @property
    def element_names(self) -> list[str]:
        """Every `element_name`, built on first use and kept."""
        if self._names is None:
            self._names = [self.element_name(i) for i in range(self.order)]
        return self._names

    def element_name(self, i: int) -> str:
        """The given name, else cycle notation of `perm_images`, else the
        index; naming one element builds no other name."""
        if self._names is not None:
            return self._names[i]
        return cycles_str(self.perm_images[i]) if self.perm_images is not None else str(i)

    def check_index(self, i: int) -> int:
        if not 0 <= i < self.order:
            raise BadIndex(f"element index {i} outside 0..{self.order - 1}")
        return i

    def subset(self, elements: Iterable[int] | np.ndarray) -> "Subset":
        """The subset of the given indices, range-checked at once by their
        least and greatest; BadIndex names the first index outside the group,
        of any size."""
        idx = elements.tolist() if isinstance(elements, np.ndarray) else [int(e) for e in elements]
        if idx and not 0 <= min(idx) <= max(idx) < self.order:
            self.check_index(next(i for i in idx if not 0 <= i < self.order))
        mask = np.zeros(self.order, dtype=bool)
        mask[idx] = True
        return Subset(self, mask)

    def full_subgroup(self) -> "Subset":
        return Subset(self, np.ones(self.order, dtype=bool))

    def trivial_subgroup(self) -> "Subset":
        mask = np.zeros(self.order, dtype=bool)
        mask[0] = True
        return Subset(self, mask)

    def class_labels(self) -> np.ndarray:
        return self.cached("classes", None, _class_labels, self)

    def class_union(self, elements: Sequence[int] | np.ndarray) -> np.ndarray:
        """Mask of the union of the classes that meet `elements`, indices or a mask."""
        labels = self.class_labels()
        hit = np.zeros(self.order, dtype=bool)
        hit[labels[elements]] = True
        return hit[labels]

    def center(self) -> "Subset":
        """The union of the classes of one element each."""
        labels = self.class_labels()
        return Subset(self, np.bincount(labels)[labels] == 1)

    def derived_subgroup(self) -> "Subset":
        """[G, G]: a repeat reads the closure of the same pair product."""
        full = self.full_subgroup()
        return commutator_subgroup(full, full)

    def __repr__(self) -> str:
        return f"FiniteGroup({self.label!r}, order={self.order})"


def _bracket(G: FiniteGroup, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """[a, b] = a^-1 b^-1 a b, the one place the commutator convention is written."""
    return G.mul_arr(G.mul_arr(G.mul_arr(G.inv_arr(a), G.inv_arr(b)), a), b)


def _full_commutator_table(G: FiniteGroup) -> np.ndarray:
    idx = np.arange(G.order, dtype=np.int32)
    ct = _bracket(G, idx[:, None], idx[None, :])
    ct.setflags(write=False)
    return ct


def _class_labels(G: FiniteGroup) -> np.ndarray:
    """``labels[g]`` numbers the conjugacy class of g, classes in order of
    their least element, so the identity's class is 0.  Each class costs two
    products, ``g^-1 e g`` for every g at once."""
    idx = np.arange(G.order, dtype=np.int32)
    inv = G.inv_arr(idx)
    labels = np.full(G.order, -1, dtype=np.int32)
    count = 0
    for e in range(G.order):
        if labels[e] < 0:
            labels[G.mul_arr(G.mul_arr(inv, e), idx)] = count
            count += 1
    labels.setflags(write=False)
    return labels


def _inverse_table(table: np.ndarray, e: int = 0) -> np.ndarray:
    """``inv[a]``: the first b with ab = e, by row blocks of the table."""
    blocks = row_blocks(table.shape[0], table.shape[0])
    return np.concatenate([np.argmax(table[r] == e, axis=1) for r in blocks]).astype(np.int32)


def _validate_table(table: np.ndarray) -> np.ndarray:
    """Checks group axioms, returns the table as int32 relabelled so the
    identity is 0.  Entries are range-checked before the cast, so none can
    wrap into range."""
    if table.ndim != 2 or table.shape[0] != table.shape[1]:
        raise NotAGroup("multiplication table must be square")
    n = table.shape[0]
    if n == 0:
        raise NotAGroup("empty table")
    if table.min() < 0 or table.max() >= n:
        bad = np.argwhere((table < 0) | (table >= n))[0]
        raise NotAGroup(
            f"entry at {tuple(map(int, bad))} outside 0..{n - 1}",
            tuple(map(int, bad)),
        )
    table = np.ascontiguousarray(table, dtype=np.int32)
    ident = np.arange(n, dtype=np.int32)
    blocks = list(row_blocks(n, n))
    for kind, lines in (("row", lambda b: table[b]), ("column", lambda b: table[:, b].T)):
        for b in blocks:
            good = (np.sort(lines(b), axis=1) == ident).all(axis=1)
            if not good.all():
                i = b.start + int(np.flatnonzero(~good)[0])
                raise NotAGroup(f"{kind} {i} is not a permutation (not a Latin square)", (i,))
    # two-sided identity
    right_ids = np.ones(n, dtype=bool)
    left_ids = np.zeros(n, dtype=bool)
    for b in blocks:
        right_ids &= (table[b] == ident[b, None]).all(axis=0)
        left_ids[b] = (table[b] == ident).all(axis=1)
    both = np.flatnonzero(right_ids & left_ids)
    if not both.size:
        raise NotAGroup("no two-sided identity element")
    e = int(both[0])
    # inverses: each row holds e once (a Latin square), at the one b with
    # ab = e, so a has a two-sided inverse iff that b also has ba = e
    right_inv = _inverse_table(table, e)
    two_sided = table[right_inv, ident] == e
    if not two_sided.all():
        a = int(np.flatnonzero(~two_sided)[0])
        raise NotAGroup(f"element {a} has no two-sided inverse", (a,))
    _check_associativity(table, e)
    if e == 0:
        return table
    perm = np.arange(n, dtype=np.int32)
    perm[e], perm[0] = 0, e
    new = np.empty_like(table)
    new[perm[:, None], perm[None, :]] = perm[table]
    return new


def _check_associativity(table: np.ndarray, e: int) -> None:
    """Light's associativity test (Clifford & Preston, *Algebraic Theory of
    Semigroups* I, section 1.2), exact in O(n^2 |gens|).

    The elements g with (xg)y = x(gy) for all x, y are closed under products,
    so it is enough to test a set of g whose products reach every element:
    `greedy_generators` over all elements, in order, from the identity.
    """
    n = table.shape[0]
    for g in greedy_generators(lambda x, y: table[x, y], n, np.arange(n), e).tolist():
        for rows in row_blocks(n, n):
            left = table[table[rows, g]]  # (xg)y
            right = np.take(table[rows], table[g], axis=1)  # x(gy)
            if (left != right).any():
                i, y = map(int, np.argwhere(left != right)[0])
                x = rows.start + i
                raise NotAGroup(f"associativity fails on ({x},{g},{y})", (x, g, y))


class Subset:
    """Subset of a group as a read-only boolean membership mask.

    A subgroup is a subset closed under products, so subsets and subgroups
    share this one type.  `order` is the number of elements.  `generators`
    is the sorted seed of a `closure` or `star_power` result (empty
    otherwise), and normality (closure under conjugation) is worked out
    once, on first use, as a class-union test.  Entries taking a subset of
    one group check it with `own`.
    """

    __slots__ = ("group", "mask", "generators", "_elements", "_key", "_normal")

    def __init__(
        self,
        group: FiniteGroup,
        mask: np.ndarray,
        generators: tuple[int, ...] = (),
    ):
        self.group = group
        mask = np.array(mask, dtype=bool, copy=True)
        if mask.shape != (group.order,):
            raise BadIndex("mask length does not match group order")
        mask.setflags(write=False)
        self.mask = mask
        self.generators = generators
        self._elements: np.ndarray | None = None
        self._key: bytes | None = None
        self._normal: bool | None = None

    @property
    def elements(self) -> np.ndarray:
        if self._elements is None:
            elems = np.flatnonzero(self.mask).astype(np.int32)
            elems.setflags(write=False)
            self._elements = elems
        return self._elements

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def key(self) -> bytes:
        if self._key is None:
            self._key = self.mask.tobytes()
        return self._key

    def __contains__(self, i: int) -> bool:
        return bool(self.mask[i])

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Subset) and other.group is self.group and other.key == self.key

    def __hash__(self) -> int:
        return hash((id(self.group), self.key))

    def __le__(self, other: "Subset") -> bool:
        return bool(own(self.group, other).mask[self.elements].all())

    @property
    def is_normal(self) -> bool:
        if self._normal is None:
            self._normal = np.array_equal(self.group.class_union(self.elements), self.mask)
        return self._normal

    def require_normal(self) -> "Subset":
        if not self.is_normal:
            raise NotNormal(f"subset of {self.group.label} is not closed under conjugation")
        return self

    def __repr__(self) -> str:
        return f"Subset({self.group.label}, order={self.order})"


# ---------------------------------------------------------------------------
# closures and subgroup arithmetic
# ---------------------------------------------------------------------------


def own(G: FiniteGroup, seed: Subset | Iterable[int]) -> Subset:
    """`seed` as a `Subset` of G: a subset of G as it is, indices through
    `G.subset`.  Every entry that takes subsets of one group checks them
    here, so a subset of another group raises the one BadIndex."""
    if not isinstance(seed, Subset):
        return G.subset(seed)
    if seed.group is not G:
        raise BadIndex("subset belongs to a different group")
    return seed


def normal_tuple(subsets: Sequence[Subset]) -> tuple[Subset, ...]:
    """`subsets` as a tuple of normal subsets of the first one's group, each
    through `own` and `Subset.require_normal`: the one check of a tuple the
    paper's words and series take."""
    return tuple(own(subsets[0].group, S).require_normal() for S in subsets)


def closure(G: FiniteGroup, seed: Subset | Iterable[int]) -> Subset:
    """Smallest subgroup containing `seed`: its star power of unbounded
    radius, under the same memo; `generators` is the sorted, distinct seed."""
    return _star_power(G, own(G, seed), None)


def star_power(G: FiniteGroup, S: Subset | Iterable[int], n: int) -> Subset:
    """Products of length at most n over S and its inverses.

    The identity (empty product) is always included, so star powers are
    monotone in n and stabilise at `closure(G, S)`.
    """
    if n < 0:
        raise ValueError("star power needs n >= 0")
    return _star_power(G, own(G, S), n)


def _star_power(G: FiniteGroup, S: Subset, radius: int | None) -> Subset:
    """`star_power` or, with no radius, `closure` of S, under one memo kind
    (`star_power`) keyed by (mask of S, radius), with S's elements as the
    result's `generators`."""
    return G.cached("star_power", (S.key, radius), _seeded_ball, G, S, radius)


def _seeded_ball(G: FiniteGroup, S: Subset, radius: int | None) -> Subset:
    return Subset(G, _ball(G, S.elements, radius), generators=tuple(S.elements.tolist()))


def _ball(G: FiniteGroup, seed_elems: np.ndarray, radius: int | None = None) -> np.ndarray:
    """Mask of the products of at most `radius` elements of the seed and
    their inverses, by breadth-first search from the identity; with no
    radius, the whole subgroup they generate."""
    gens = np.zeros(G.order, dtype=bool)
    gens[seed_elems] = gens[G.inv_arr(seed_elems)] = True
    mask = np.zeros(G.order, dtype=bool)
    mask[0] = True
    return _grow(G.mul_arr, np.flatnonzero(gens), mask, radius)


def _grow(op, gens: np.ndarray, mask: np.ndarray, radius: int | None = None) -> np.ndarray:
    """`mask`, grown in place by right products ``op(x, g)`` with `gens`,
    breadth first from all of it, for `radius` steps or, with None, until it
    is closed; a full mask takes no further step."""
    frontier = mask.nonzero()[0]
    steps = 0
    while frontier.size and not mask.all() and (radius is None or steps < radius):
        hit = _scatter(mask.size, op, frontier, gens)
        hit &= ~mask
        mask |= hit
        frontier = hit.nonzero()[0]
        steps += 1
    return mask


def greedy_generators(op, n: int, axis: np.ndarray, e: int = 0) -> np.ndarray:
    """The elements of `axis`, in order, that right products `op` of `e` by
    the ones taken before them do not reach in 0..n-1, the reached mask grown
    in place as each is taken, until it holds all of `axis`.  With `e` the
    identity and `axis` listing a subgroup, it is a generating set of that
    subgroup, empty for the trivial one."""
    reached = np.zeros(n, dtype=bool)
    reached[e] = True
    gens: list[int] = []
    while (unreached := np.flatnonzero(~reached[axis])).size:
        gens.append(int(axis[unreached[0]]))
        _grow(op, np.array(gens), reached)
    return np.array(gens, dtype=axis.dtype)


def normal_closure(G: FiniteGroup, seed: Subset | Iterable[int]) -> Subset:
    """Smallest normal subgroup containing `seed`: the closure of the
    conjugacy classes that meet it."""
    return closure(G, Subset(G, G.class_union(own(G, seed).mask)))


def _scatter(n: int, op, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Mask over 0..n-1 of op(x, y) for x in `a` and y in `b`, a row block at a time."""
    seen = np.zeros(n, dtype=bool)
    for rows in row_blocks(a.shape[0], b.shape[0]):
        seen[op(a[rows, None], b[None, :]).astype(np.intp)] = True  # intp scatters 2x faster
    return seen


def interned(G: FiniteGroup, elements: np.ndarray) -> Subset:
    """The group's one `Subset` of `elements`, indices or a mask over G
    (memo kind `set`): equal sets share one `elements` and normality test."""
    mask = np.zeros(G.order, dtype=bool)
    mask[elements] = True
    return G.cached("set", mask.tobytes(), Subset, G, mask)


def set_product(G: FiniteGroup, op, A: Subset, B: Subset, budget: int | None, what: str) -> Subset:
    """The `interned` set of op(a, b) over a in A and b in B, `op` being
    `G.mul_arr` or `G.comm_arr`, built once per operand pair (memo kind
    `combine`); the |A| x |B| mesh counts against the budget as `what`, even
    on a memo hit.  For normal A and B the set is a class union, and as
    op(a^g, b) = op(a, b^(g^-1))^g with b^(g^-1) in B, it is the class union
    of op(r, b) over r the least element of each class of A.  Otherwise
    every pair is meshed."""
    A, B = own(G, A), own(G, B)
    require_budget(A.order * B.order, budget, what)
    return G.cached("combine", (op, A.key, B.key), _set_product, G, op, A, B)


def _set_product(G: FiniteGroup, op, A: Subset, B: Subset) -> Subset:
    if A.is_normal and B.is_normal:
        reps = A.elements[np.unique(G.class_labels()[A.elements], return_index=True)[1]]
        return interned(G, G.class_union(_scatter(G.order, op, reps, B.elements)))
    return interned(G, _scatter(G.order, op, A.elements, B.elements))


def commutator_subgroup(H: Subset, K: Subset, budget: int | None = None) -> Subset:
    """Subgroup generated by the commutators [h,k] of two normal subsets of
    one group: [H,K] for normal subgroups, and [<H>,<K>] for normal subsets.
    The |H| x |K| mesh counts against the budget, even on a memo hit."""
    G = H.group
    seed = set_product(G, G.comm_arr, H.require_normal(), K.require_normal(), budget, "commutator mesh")
    return closure(G, seed)


def subgroup_product(H: Subset, K: Subset, budget: int | None = None) -> Subset:
    """The set product HK, which must again be a subgroup."""
    G = H.group
    HK = set_product(G, G.mul_arr, H, K, budget, "subgroup product")
    if H.is_normal or K.is_normal or set_product(G, G.mul_arr, HK, HK, budget, "subgroup product") == HK:
        return HK
    raise ProductNotSubgroup("neither factor is normal and the set product is not closed")


def quotient(P: Subset) -> tuple[np.ndarray, FiniteGroup]:
    """Coset labels of the normal subgroup P and the quotient group G/P.

    ``labels[g]`` is the coset of g.  Cosets are numbered by their smallest
    element, so P itself is label 0, the identity of the quotient.  The
    quotient is built once per (G, P) and kept on G; for a trivial P it is G
    itself, with the identity labelling.
    """
    P.require_normal()
    return P.group.cached("quotient", P.key, _quotient, P)


def _quotient(P: Subset) -> tuple[np.ndarray, FiniteGroup]:
    G = P.group
    if P.order == 1:
        return np.arange(G.order, dtype=np.int32), G
    labels = np.full(G.order, -1, dtype=np.int32)
    reps: list[int] = []
    for g in range(G.order):
        if labels[g] < 0:
            labels[G.mul_arr(g, P.elements)] = len(reps)
            reps.append(g)
    r = np.array(reps, dtype=np.int32)
    table = labels[G.mul_arr(r[:, None], r[None, :])]
    return labels, FiniteGroup(table, label=f"{G.label}/P")


# ---------------------------------------------------------------------------
# word evaluation
# ---------------------------------------------------------------------------


def evaluate(w: WordExpr, G: FiniteGroup, assignment: Mapping[Var, int]) -> int:
    """Value of `w` under the fixed commutator convention."""
    return int(evaluate_arrays(w, G, {v: np.asarray(e) for v, e in assignment.items()}))


def evaluate_arrays(
    w: WordExpr, G: FiniteGroup, assignment: Mapping[Var, np.ndarray]
) -> np.ndarray:
    """Vectorised evaluation; assignment arrays must broadcast together."""
    if isinstance(w, Var):
        try:
            return np.asarray(assignment[w])
        except KeyError:
            raise UnassignedVariable(f"no value for variable {w}") from None
    if isinstance(w, Power):
        return G.pow_arr(evaluate_arrays(w.child, G, assignment), w.exponent)
    if isinstance(w, Product):
        if not w.factors:
            return np.asarray(0)
        out = evaluate_arrays(w.factors[0], G, assignment)
        for f in w.factors[1:]:
            out = G.mul_arr(out, evaluate_arrays(f, G, assignment))
        return out
    a = evaluate_arrays(w.left, G, assignment)
    b = evaluate_arrays(w.right, G, assignment)
    return G.comm_arr(a, b)


# ---------------------------------------------------------------------------
# construction: tables, permutations, builtins, files
# ---------------------------------------------------------------------------


def group_from_cayley(
    table: Sequence[Sequence[int]] | np.ndarray, label: str = "G"
) -> FiniteGroup:
    """The group of a Cayley table from outside, checked exactly by
    `_validate_table`; a table that is not a group, or not an array of
    integers, raises `NotAGroup`."""
    try:
        table = np.asarray(table)
        whole = bool((table % 1 == 0).all())
    except (TypeError, ValueError):  # ragged rows, or entries that are not numbers
        whole = False
    if not whole:
        raise NotAGroup("multiplication table must be an array of integers")
    return FiniteGroup(_validate_table(table), label=label)


def _compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    # (p*q)(i) = p(q(i))
    return tuple(p[q[i]] for i in range(len(p)))


def group_from_permutations(
    generators: Sequence[tuple[int, ...]],
    degree: int,
    label: str = "G",
    cap: int = DEFAULT_ORDER_CAP,
) -> FiniteGroup:
    """Closure of permutation generators, materialised as a Cayley table.

    The breadth-first closure over left multiplication by the generators
    records every edge ``g*p`` and, for each new element ``q``, the edge
    ``(p, g)`` that found it: a spanning tree of the Cayley graph rooted at
    the identity (Holt, Eick & O'Brien, *Handbook of Computational Group
    Theory*, 2005, ch. 4).  Row ``q`` of the table, ``y -> q*y``, is then
    ``L_g`` applied to row ``p``, where ``L_g[x] = g*x``, so the table is
    filled in place by one integer gather of length n per element, for any
    degree.
    """
    ident = tuple(range(degree))
    for g in generators:
        if sorted(g) != list(range(degree)):
            raise NotAGroup(f"generator {g} is not a permutation of 0..{degree - 1}")
    gens = list(dict.fromkeys(map(tuple, generators)))
    # elements in discovery order; edges[i * len(gens) + k] is the discovery
    # index of gens[k]*found[i]
    found = [ident]
    index = {ident: 0}
    edges: list[int] = []
    tree: list[tuple[int, int]] = []  # (parent, generator) of found[1], found[2], ...
    for i, p in enumerate(found):  # `found` grows as the loop runs: a BFS queue
        for k, g in enumerate(gens):
            q = _compose(g, p)
            j = index.get(q)
            if j is None:
                j = index[q] = len(found)
                found.append(q)
                tree.append((i, k))
                if len(found) > cap:
                    raise OrderCapExceeded(f"permutation closure exceeded order cap {cap}")
            edges.append(j)
    # canonical element order: identity first, the rest sorted
    n = len(found)
    by_rank = [0] + sorted(range(1, n), key=found.__getitem__)
    order = [found[i] for i in by_rank]
    rank = np.empty(n, dtype=np.int32)
    rank[by_rank] = np.arange(n, dtype=np.int32)
    # left[k][rank[i]] = rank of gens[k]*found[i]
    left = np.empty((len(gens), n), dtype=np.int32)
    left[:, rank] = rank[np.array(edges, dtype=np.int32).reshape(n, len(gens)).T]
    table = np.empty((n, n), dtype=np.int32)
    table[0] = np.arange(n, dtype=np.int32)
    r = rank.tolist()
    for q, (p, k) in enumerate(tree, start=1):
        np.take(left[k], table[r[p]], out=table[r[q]])
    return FiniteGroup(table, label=label, perm_images=order)


def parse_cycles(text: str, degree: int) -> tuple[int, ...]:
    """Cycle notation with 1-based points, e.g. ``(1 2)(3 4)``."""
    text = text.strip()
    img = list(range(degree))
    if text in ("", "()", "e", "id"):
        return tuple(img)
    if not re.fullmatch(r"(\s*\([\d,\s]*\)\s*)+", text):
        raise NotAGroup(f"cannot parse cycle notation {text!r}")
    for cyc in re.findall(r"\(([^()]*)\)", text):
        pts = [int(s) for s in re.split(r"[,\s]+", cyc.strip()) if s]
        if any(p < 1 or p > degree for p in pts):
            raise BadIndex(f"cycle point outside 1..{degree}: ({cyc})")
        if len(set(pts)) != len(pts):
            raise NotAGroup(f"repeated point in cycle ({cyc})")
        for a, b in zip(pts, pts[1:] + pts[:1]):
            img[a - 1] = b - 1
    return tuple(img)


def cycles_str(p: tuple[int, ...]) -> str:
    seen = [False] * len(p)
    parts = []
    for i in range(len(p)):
        if seen[i] or p[i] == i:
            seen[i] = True
            continue
        cyc = [i]
        seen[i] = True
        j = p[i]
        while j != i:
            cyc.append(j)
            seen[j] = True
            j = p[j]
        parts.append("(" + " ".join(str(k + 1) for k in cyc) + ")")
    return "".join(parts) if parts else "()"


def direct_product(A: FiniteGroup, B: FiniteGroup, label: str | None = None) -> FiniteGroup:
    n, m = A.order, B.order
    a, b = np.divmod(np.arange(n * m), m)
    table = A.mul_arr(a[:, None], a[None, :]) * m + B.mul_arr(b[:, None], b[None, :])
    names = [f"({A.element_names[i]},{B.element_names[j]})" for i in range(n) for j in range(m)]
    return FiniteGroup(table, label=label or f"{A.label} x {B.label}", element_names=names)


def _cyclic(n: int) -> FiniteGroup:
    idx = np.arange(n, dtype=np.int64)
    table = (idx[:, None] + idx[None, :]) % n
    return FiniteGroup(table, label=f"cyc:{n}", element_names=[str(i) for i in range(n)])


def _dihedral(n: int) -> FiniteGroup:
    # element k is r^i s^j with i = k mod n, j = k div n; s r s = r^-1, so
    # r^i s^j * r^i' s^j' = r^(i + (-1)^j i') s^(j + j')
    k = np.arange(2 * n, dtype=np.int64)
    i, j = k % n, k // n
    sign = 1 - 2 * j[:, None]
    table = (i[:, None] + sign * i[None, :]) % n + ((j[:, None] + j[None, :]) % 2) * n
    names = [
        ("e" if a == 0 else f"r{a}") if b == 0 else ("s" if a == 0 else f"r{a}s")
        for a, b in zip(i.tolist(), j.tolist())
    ]
    return FiniteGroup(table, label=f"dih:{n}", element_names=names)


def _quaternion8() -> FiniteGroup:
    # element 2a + s is (-1)^s times the unit a of 1, i, j, k; units multiply
    # as a*b = (-1)^SG[a, b] (a xor b), e.g. i*j = k and j*i = -k
    k = np.arange(8)
    a, s = k // 2, k % 2
    SG = np.array([[0, 0, 0, 0], [0, 1, 0, 1], [0, 1, 1, 0], [0, 0, 1, 1]])
    table = 2 * (a[:, None] ^ a[None, :]) + (s[:, None] ^ s[None, :] ^ SG[a[:, None], a[None, :]])
    names = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]
    return FiniteGroup(table, label="quat:8", element_names=names)


_HEIS_PRIMES = (2, 3, 5, 7)


def _heisenberg(p: int) -> FiniteGroup:
    if p not in _HEIS_PRIMES:
        raise UnknownSpec(f"heis:{p} not supported (prime <= 7 required)")
    # element k is the triple (a, b, c) with k = a p^2 + b p + c, multiplied
    # as (a,b,c)(d,e,f) = (a+d, b+e, c+f+ae) mod p
    k = np.arange(p**3, dtype=np.int64)
    a, b, c = k // (p * p), k // p % p, k % p
    table = (
        (a[:, None] + a[None, :]) % p * (p * p)
        + (b[:, None] + b[None, :]) % p * p
        + (c[:, None] + c[None, :] + a[:, None] * b[None, :]) % p
    )
    names = [f"({x},{y},{z})" for x, y, z in zip(a.tolist(), b.tolist(), c.tolist())]
    return FiniteGroup(table, label=f"heis:{p}", element_names=names)


def _symmetric_gens(n: int) -> list[tuple[int, ...]]:
    if n <= 1:
        return []
    swap = tuple([1, 0] + list(range(2, n)))
    cyc = tuple(list(range(1, n)) + [0])
    return [swap, cyc]


def _alternating_gens(n: int) -> list[tuple[int, ...]]:
    if n <= 2:
        return []
    three = tuple([1, 2, 0] + list(range(3, n)))
    if n <= 3:
        return [three]
    if n % 2 == 1:
        big = tuple(list(range(1, n)) + [0])
    else:
        big = tuple([0] + list(range(2, n)) + [1])
    return [three, big]


def builtin_group(spec: str, cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """Construct a named group; direct products via 'a x b'."""
    spec = spec.strip()
    parts = re.split(r"\s+(?:x|×)\s+", spec)
    if len(parts) > 1:
        out = builtin_group(parts[0], cap)
        for part in parts[1:]:
            nxt = builtin_group(part, cap)
            if out.order * nxt.order > cap:
                raise OrderCapExceeded(f"product order {out.order * nxt.order} exceeds cap {cap}")
            out = direct_product(out, nxt)
        out.label = spec
        return out
    m = re.fullmatch(r"([a-z]+):(\d+)", spec)
    if not m:
        raise UnknownSpec(f"cannot parse group spec {spec!r}")
    kind, n = m.group(1), int(m.group(2))
    if kind in ("cyc", "dih", "sym", "alt") and n < 1:
        raise UnknownSpec(f"{kind}:n needs n >= 1")
    if kind in ("sym", "alt"):
        gens = _symmetric_gens(n) if kind == "sym" else _alternating_gens(n)
        return group_from_permutations(gens, n, label=f"{kind}:{n}", cap=cap)
    if kind == "quat" and n != 8:
        raise UnknownSpec("only quat:8 is available")
    # the table-built kinds: (builder of n, order)
    tables = {"cyc": (_cyclic, n), "dih": (_dihedral, 2 * n),
              "quat": (lambda _: _quaternion8(), 8), "heis": (_heisenberg, n**3)}
    if kind in tables:
        build, order = tables[kind]
        if order > cap:
            raise OrderCapExceeded(f"order {order} exceeds cap {cap}")
        return build(n)
    raise UnknownSpec(f"unknown group kind {kind!r}")


def load_group_file(path: str, cap: int = DEFAULT_ORDER_CAP, label: str | None = None) -> FiniteGroup:
    """Read a group from the plain-text cayley/perm file format.

    Every malformed file raises `NotAGroup`: a bad header, a missing or
    non-numeric number, a short or ragged table, or a short generator list.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines:
        raise NotAGroup(f"{path}: empty file")
    kind, *params = lines[0].split()
    wanted = {"cayley": 1, "perm": 2}.get(kind)
    if wanted is None:
        raise NotAGroup(f"{path}: unknown header {lines[0]!r}")
    if len(params) < wanted:
        raise NotAGroup(f"{path}: header {lines[0]!r} needs {wanted} number(s)")
    name = label or path
    if kind == "cayley":
        (n,) = _file_ints(path, params[:1])
        rows = [_file_ints(path, ln.split()) for ln in lines[1 : n + 1]]
        if len(rows) != n:
            raise NotAGroup(f"{path}: expected {n} table rows, got {len(rows)}")
        for i, row in enumerate(rows):
            if len(row) != n:
                raise NotAGroup(f"{path}: table row {i} has {len(row)} entries, expected {n}")
        return group_from_cayley(rows, label=name)
    degree, count = _file_ints(path, params[:2])
    gens = [parse_cycles(ln, degree) for ln in lines[1 : count + 1]]
    if len(gens) != count:
        raise NotAGroup(f"{path}: expected {count} generators, got {len(gens)}")
    return group_from_permutations(gens, degree, label=name, cap=cap)


def _file_ints(path: str, tokens: Sequence[str]) -> list[int]:
    try:
        return [int(tok) for tok in tokens]
    except ValueError:
        raise NotAGroup(f"{path}: expected numbers, got {' '.join(tokens)!r}") from None
