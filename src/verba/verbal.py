"""Value sets and verbal subgroups on tuples of subsets or normal subgroups.

Value sets are computed exactly.  Where a word is an outer commutator (or the
argument words are disjoint) the set of values over a product of subsets
factorises through the value sets of the subwords, which keeps exhaustive
computations far below the nominal tuple-space size; enumeration only falls
back to the raw assignment space when variables repeat inside a subtree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .enumeration import ProductSpace
from .errors import ArityMismatch, PreconditionFailed
from .groups import (
    FiniteGroup,
    Subset,
    closure,
    commutator_subgroup,
    evaluate_arrays,
    greedy_generators,
    interned,
    normal_tuple,
    own,
    quotient,
    set_product,
    star_power,
    subgroup_product,
)
from .words import (
    Commutator,
    Power,
    Product,
    Var,
    WordExpr,
    extension_degree,
    gamma,
    render,
    substitute,
    variables,
)

# ---------------------------------------------------------------------------
# value sets
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class ValueSet:
    """Exact set of word values over a tuple of subsets.

    `subsets[i]` is the range of variables(word)[i].  The group keeps one
    member `Subset` per distinct set, whatever word and subsets gave it; a
    ValueSet is a per-call view of it carrying the caller's word and
    subsets.  `values` are the members' sorted elements, and `witness`
    searches for a preimage of one value when a failure report asks for it.
    """

    word: WordExpr
    subsets: tuple[Subset, ...]
    members: Subset

    @property
    def values(self) -> np.ndarray:
        return self.members.elements  # sorted ascending

    @property
    def size(self) -> int:
        return int(self.values.shape[0])

    def witness(self, value: int) -> dict[Var, int]:
        """An assignment of the word's variables, each in its subset, at
        which the word takes `value`.

        The search descends the word.  At a node with two sides, a
        commutator's or a product's leading factors and last factor, it
        takes the first row-major pair of the sides' ascending memoised
        values that gives the value; at a power, the least child value
        mapping to it; at any other node, the first tuple of its raw
        assignment space.  The set's build already enumerated each of these
        under the budget, so the search takes no budget of its own.
        """
        value = int(value)
        if not self.members.mask[value]:
            raise KeyError(value)
        vars_ = variables(self.word)
        found = _witness(self.word, dict(zip(vars_, self.subsets)), self.members.group, value)
        return {v: found[v] for v in vars_}


def value_set(
    w: WordExpr,
    subsets: Sequence[Subset],
    budget: int | None = None,
) -> ValueSet:
    """Values of `w` as its variables range over `subsets` positionally:
    subsets[i] goes to variables(w)[i]."""
    return value_set_over(w, _positional(w, subsets), budget)


def _positional(w: WordExpr, subsets: Sequence[Subset]) -> dict[Var, Subset]:
    """``variables(w)[i] -> subsets[i]``, once `subsets` holds one subset per variable."""
    vars_ = variables(w)
    if len(subsets) != len(vars_):
        raise ArityMismatch(f"word {render(w)} has {len(vars_)} variables, got {len(subsets)} subsets")
    return dict(zip(vars_, subsets))


def value_set_over(
    w: WordExpr,
    env: Mapping[Var, Subset],
    budget: int | None = None,
) -> ValueSet:
    """Values of `w` with each variable ranging over its subset in `env`.

    The member Subset is memoised on the group, one group for all of `env`,
    by word text and subset masks, and equal sets share one `members`.
    """
    vars_ = variables(w)
    missing = [v for v in vars_ if v not in env]
    if missing:
        raise ArityMismatch(f"no subset assigned to variable {missing[0]}")
    if not vars_:
        raise ArityMismatch(f"word {render(w)} has no variables")
    subsets = tuple(env[v] for v in vars_)
    for v, s in zip(vars_, subsets):
        if not isinstance(s, Subset):
            raise PreconditionFailed(f"value sets take Subsets; {v} got a {type(s).__name__}")
        own(subsets[0].group, s)
    return ValueSet(w, subsets, _value_set(w, env, subsets[0].group, budget))


def _value_set(
    expr: WordExpr,
    sets: Mapping[Var, Subset],
    group: FiniteGroup,
    budget: int | None,
) -> Subset:
    """The members of `value_set_over`, without the input checks: one
    member `Subset` per distinct set.  This is the one value-set memo,
    keyed by word text and subset masks; sub-words are kept in it too."""
    memo_key = (render(expr), tuple(sets[v].key for v in variables(expr)))
    return group.cached("value_set", memo_key, _build_value_set, expr, sets, group, budget)


def _build_value_set(
    expr: WordExpr,
    sets: Mapping[Var, Subset],
    group: FiniteGroup,
    budget: int | None,
) -> Subset:
    """The members of `expr`, the group's `interned` set of its values.  A
    node with two `_sides` is one `set_product` of their members.  Otherwise
    a variable takes its subset, a power the images of its child's members,
    a word with variables one raw sweep, and the empty product the identity.
    Sub-words, a product's leading factors among them, come from the
    value-set memo."""
    sides = _sides(expr)
    if sides:
        left, right = (_value_set(side, sets, group, budget) for side in sides)
        op = group.mul_arr if isinstance(expr, Product) else group.comm_arr
        return set_product(group, op, left, right, budget, "value-set combination")
    if isinstance(expr, Var):
        values = sets[expr].elements
    elif isinstance(expr, Power):
        values = group.pow_arr(_value_set(expr.child, sets, group, budget).elements, expr.exponent)
    elif variables(expr):
        values = enumerate_values(expr, sets, budget)
    else:
        values = np.array([0], dtype=np.int64)  # the empty product
    return interned(group, values)


def _sides(expr: WordExpr) -> tuple[WordExpr, WordExpr] | None:
    """The two sides of a commutator, or a product's leading factors, as
    one product word, and its last factor, when no two children of the node
    share a variable; None for any other node and the empty product."""
    if isinstance(expr, Commutator):
        children = (expr.left, expr.right)
    elif isinstance(expr, Product) and expr.factors:
        children = expr.factors
    else:
        return None
    leaves = [variables(c) for c in children]  # each without repeats
    if sum(map(len, leaves)) != len(set().union(*leaves)):
        return None
    *lead, last = children
    return (lead[0] if len(lead) == 1 else Product(tuple(lead))), last


def enumerate_values(
    expr: WordExpr, env: Mapping[Var, Subset], budget: int | None
) -> np.ndarray:
    """Sorted distinct values of `expr` over its raw assignment space, each
    variable ranging over its subset in `env`.

    This sweep shares nothing with the factorised engine but the word
    evaluator, so it doubles as an independent cross-check of it.
    """
    vars_ = variables(expr)
    space = ProductSpace([env[v].elements for v in vars_])
    space.require_within(budget, f"value set of {render(expr)}")
    group = env[vars_[0]].group
    seen = np.zeros(group.order, dtype=bool)
    for _, cols in space.blocks():
        seen[evaluate_arrays(expr, group, dict(zip(vars_, cols)))] = True
    return np.flatnonzero(seen).astype(np.int64)


def _witness(expr, sets, group, value) -> dict[Var, int]:
    """`ValueSet.witness` for the sub-word `expr`, which takes `value`."""
    if isinstance(expr, Var):
        return {expr: value}
    if isinstance(expr, Power):
        child = _value_set(expr.child, sets, group, None).elements
        first = int(np.flatnonzero(group.pow_arr(child, expr.exponent) == value)[0])
        return _witness(expr.child, sets, group, int(child[first]))
    sides = _sides(expr)
    if sides:
        op = group.mul_arr if isinstance(expr, Product) else group.comm_arr
        space = ProductSpace([_value_set(side, sets, group, None).elements for side in sides])
        # the first pair failing "!= value", row-major, is the first giving it
        flat = space.first_failure(lambda cols: op(*cols) != value)
    elif variables(expr):  # each variable a side: the first tuple of the raw space giving it
        sides = variables(expr)
        space = ProductSpace([sets[v].elements for v in sides])
        flat = space.first_failure(lambda cols: evaluate_arrays(expr, group, dict(zip(sides, cols))) != value)
    else:
        return {}  # the empty product
    point = space.tuple_at(flat)
    return {v: e for side, part in zip(sides, point) for v, e in _witness(side, sets, group, part).items()}


# ---------------------------------------------------------------------------
# generating subsets
# ---------------------------------------------------------------------------


def class_generating_subset(N: Subset) -> Subset:
    """A proper normal generating subset of N: a union of G-conjugacy classes
    plus the identity, greedily chosen.

    The result is memoised on the group by the mask of N."""
    N.require_normal()
    return N.group.cached("class_subset", N.key, _class_generating_subset, N)


def _class_generating_subset(N: Subset) -> Subset:
    G = N.group
    mask = np.zeros(G.order, dtype=bool)
    mask[0] = True
    have = G.trivial_subgroup()
    for e in N.elements:
        if have.mask[e]:
            continue
        mask |= G.class_union([e])
        have = closure(G, Subset(G, mask))
        if have == N:
            break
    return Subset(G, mask)


# ---------------------------------------------------------------------------
# verbal subgroups
# ---------------------------------------------------------------------------


def verbal_subgroup(
    w: WordExpr, sets: Sequence[Subset], budget: int | None = None
) -> Subset:
    """Subgroup generated by the values of `w` over `sets`, positionally as
    in `value_set`.  For an outer commutator word it is the same over normal
    subgroups as over normal subsets generating them (Lemma 2.3, check L2.3).
    """
    vs = value_set(w, sets, budget)
    return closure(vs.members.group, vs.members)


# ---------------------------------------------------------------------------
# split / substitution checks
# ---------------------------------------------------------------------------


@dataclass
class SplitReport:
    equal: bool
    whole: Subset
    left: Subset
    right: Subset


def check_disjoint_split(
    w: Commutator, subgroups: Sequence[Subset], budget: int | None = None
) -> SplitReport:
    """Both sides of w(N1..Nr) = [alpha, beta] for w = [alpha, beta], where
    each side takes the subgroups on its own variables."""
    if not isinstance(w, Commutator):
        raise PreconditionFailed("word must be a commutator")
    env = _positional(w, subgroups)
    whole = verbal_subgroup(w, subgroups, budget)
    left = verbal_subgroup(w.left, [env[v] for v in variables(w.left)], budget)
    right = verbal_subgroup(w.right, [env[v] for v in variables(w.right)], budget)
    bracket = commutator_subgroup(left, right, budget)
    return SplitReport(equal=(whole == bracket), whole=whole, left=left, right=right)


@dataclass
class SubstitutionReport:
    equal: bool
    direct_order: int
    composed_order: int


def check_substitution(
    w: WordExpr, args: Sequence[WordExpr], G: FiniteGroup, budget: int | None = None
) -> SubstitutionReport:
    """Compare w(u1,...,ur)(G) with w(u1(G),...,ur(G)), where args[i] goes
    to variables(w)[i].

    The report is memoised on G by the texts of `w` and `args`.  Like the
    value-set memo, the key has no budget; a build that raises stores
    nothing."""
    vars_ = variables(w)
    if len(args) != len(vars_):
        raise ArityMismatch(f"word has {len(vars_)} variables, got {len(args)} arguments")
    key = (render(w), tuple(render(u) for u in args))
    return G.cached("substitution", key, _check_substitution, w, args, G, budget)


def _check_substitution(w, args, G, budget) -> SubstitutionReport:
    vars_ = variables(w)
    full = G.full_subgroup()
    direct, *arg_groups = [
        verbal_subgroup(u, [full] * len(variables(u)), budget)
        for u in [substitute(w, dict(zip(vars_, args))), *args]
    ]
    composed = verbal_subgroup(w, arg_groups, budget)
    return SubstitutionReport(
        equal=(direct == composed),
        direct_order=direct.order,
        composed_order=composed.order,
    )


# ---------------------------------------------------------------------------
# linearity
# ---------------------------------------------------------------------------


@dataclass
class LinearityReport:
    space: int
    holds: bool
    counterexample: dict[str, int] | None = None

    @property
    def verdict(self) -> str:
        return "holds" if self.holds else "fails"


def spine_decompose(w: WordExpr, pivot: Var) -> list[tuple[WordExpr, bool]]:
    """Siblings along the root-to-pivot path of the outer commutator word
    `w`; flag says pivot is on the left."""
    path: list[tuple[WordExpr, bool]] = []
    node = w
    while isinstance(node, Commutator):
        if pivot in variables(node.left):
            path.append((node.right, True))
            node = node.left
        else:
            path.append((node.left, False))
            node = node.right
    if node != pivot:
        raise PreconditionFailed(f"variable {pivot} does not occur in the word")
    return path


def spine_eval(
    G: FiniteGroup, path: list[tuple[WordExpr, bool]], pivot_vals: np.ndarray, sib_vals: list[np.ndarray]
) -> np.ndarray:
    out = pivot_vals
    for (_, pivot_left), vals in zip(reversed(path), reversed(sib_vals)):
        out = G.comm_arr(out, vals) if pivot_left else G.comm_arr(vals, out)
    return out


def check_linearity(
    w: WordExpr,
    subgroups: Sequence[Subset],
    position: int,
    modulus: Subset,
    budget: int | None = None,
) -> LinearityReport:
    """Test multiplicativity of `w` in one component modulo a normal subgroup.

    The check is exact, and runs in the quotient G/P by the modulus P: the
    congruence only depends on cosets, so each axis is replaced by its
    distinct images there.  Subtrees that do not contain the tested component
    enter through their value sets.  With the sibling values fixed, the word
    is a map f on the pivot image H = NP/P, and f(xs) = f(x)f(s) for every x
    in H and every s in a generating set S of H makes f a homomorphism: the
    good s are closed under products (Light's argument), and in a finite
    group the products of S reach all of H.  So the second pivot axis runs
    over `greedy_generators` of H only; for a trivial H that is empty, and
    no tuple needs testing, as an outer commutator word with one variable
    at 1 takes the value 1, so f(1) = 1.  A failing quotient tuple is lifted back to G
    through the first value or element of each coset, in enumeration order,
    and `ValueSet.witness`, so the counterexample is an assignment in G.
    `space` counts the quotient tuples, |siblings| x |H| x |S|.
    """
    modulus.require_normal()
    env = _positional(w, [own(modulus.group, sub) for sub in subgroups])
    vars_ = list(env)
    if not 1 <= position <= len(vars_):
        raise PreconditionFailed("position out of range")
    pivot = vars_[position - 1]

    path = spine_decompose(w, pivot)
    sib_sets = [value_set_over(sub, env, budget) for sub, _ in path]
    labels, Q = quotient(modulus)
    sib_axes = [_coset_images(labels, vs.values) for vs in sib_sets]
    pivot_axis, pivot_lift = _coset_images(labels, env[pivot].elements)
    gens = greedy_generators(Q.mul_arr, Q.order, pivot_axis)
    space = ProductSpace([axis for axis, _ in sib_axes] + [pivot_axis, gens])
    space.require_within(budget, f"linearity of {render(w)} in position {position}")

    def multiplicative(cols):
        sibs, xv, yv = cols[:-2], cols[-2], cols[-1]
        fxy, fx, fy = (spine_eval(Q, path, v, sibs) for v in (Q.mul_arr(xv, yv), xv, yv))
        return fxy == Q.mul_arr(fx, fy)

    flat = space.first_failure(multiplicative)
    if flat is None:
        return LinearityReport(space=space.size, holds=True)
    elems = _lift(sib_axes + [(pivot_axis, pivot_lift)] * 2, space.tuple_at(flat))
    counterexample = {}
    for vs, value in zip(sib_sets, elems[:-2]):
        counterexample.update({str(var): e for var, e in vs.witness(value).items()})
    counterexample[str(pivot)], counterexample["y"] = elems[-2:]
    return LinearityReport(space=space.size, holds=False, counterexample=counterexample)


def _coset_images(labels: np.ndarray, elems: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct coset labels of `elems` in order of first appearance, with the
    first element of `elems` in each of those cosets."""
    images = labels[elems]
    _, first = np.unique(images, return_index=True)
    first.sort()
    return images[first], elems[first]


def _lift(axes: list[tuple[np.ndarray, np.ndarray]], point: tuple[int, ...]) -> list[int]:
    """The element of G standing for each coset label of `point`, through
    the (images, first elements) pairs `_coset_images` gave for its axes."""
    return [int(lift[np.flatnonzero(axis == label)[0]]) for (axis, lift), label in zip(axes, point)]


# ---------------------------------------------------------------------------
# lemma sweeps: star membership, width, extended width, commutator congruence
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepReport:
    """Outcome of one exhaustive lemma sweep.

    `counterexample` is the first failing point in enumeration order, or
    None when the lemma holds on the whole space; each sweep documents its
    shape.  `swept` counts the points tested before the sweep stopped.
    `modulus` is the subgroup a congruence is taken modulo, for the lemma
    that has one, and None otherwise.
    """

    counterexample: tuple | None
    swept: int
    modulus: Subset | None

    @property
    def holds(self) -> bool:
        return self.counterexample is None


def star_membership_sweep(
    w: WordExpr, subsets: Sequence[Subset], budget: int | None
) -> SweepReport:
    """Lemma 2.5: w(t) lies in the 2^(r-1) star power of S_i whenever the
    i-th entry of t lies in the normal subset S_i and the others in G.

    Position i is variables(w)[i-1] and takes `subsets[i-1]`; positions are
    swept in order, each through the value set of w with that entry in S_i
    and the others in G.  A counterexample is (position, value, witness), the
    witness following variables(w).  `swept` counts collapsed tuples: for each
    position that passed, |S_i| times the sibling value-set sizes over G
    along its spine.
    """
    vars_ = _require_normal_subsets(w, subsets)
    G = subsets[0].group
    full = G.full_subgroup()
    env = {v: full for v in vars_}
    swept = 0
    for pos, (var, subset) in enumerate(zip(vars_, subsets), start=1):
        star = star_power(G, subset, 2 ** (len(vars_) - 1))
        path = spine_decompose(w, var)
        escape = _first_escape(value_set_over(w, {**env, var: subset}, budget), star)
        if escape is not None:
            return SweepReport((pos, *escape[1:]), swept, None)
        swept += subset.order * math.prod(value_set_over(sub, env, budget).size for sub, _ in path)
    return SweepReport(None, swept, None)


def _require_normal_subsets(w: WordExpr, subsets: Sequence[Subset]) -> tuple[Var, ...]:
    """The variables of `w`, once `subsets` holds one normal subset for each."""
    vars_ = tuple(_positional(w, subsets))
    normal_tuple(subsets)
    return vars_


def _first_escape(vs: ValueSet, star: Subset) -> tuple[int, int, tuple[int, ...]] | None:
    """The least value of `vs` outside `star` as (index, value, witness), or None."""
    ok = star.mask[vs.values]
    if ok.all():
        return None
    i = int(np.flatnonzero(~ok)[0])
    value = int(vs.values[i])
    return i, value, tuple(vs.witness(value).values())


def width_sweep(
    w: WordExpr,
    subsets: Sequence[Subset],
    multiplicities: Sequence[Sequence[int]],
    budget: int | None,
) -> SweepReport:
    """Lemma 2.6: w(t) lies in the (m_1...m_r) star power of w{S_1..S_r}
    whenever each t_i lies in the m_i star power of the normal subset S_i.

    This is Lemma 3.2 for the degree-0 extension, w itself, so it runs as
    `extended_width_sweep([w], w, ...)` and reports the same way.
    """
    return extended_width_sweep([w], w, subsets, multiplicities, budget)


def extended_width_sweep(
    extensions: Sequence[WordExpr],
    w: WordExpr,
    subsets: Sequence[Subset],
    multiplicities: Sequence[Sequence[int]],
    budget: int | None,
) -> SweepReport:
    """Lemma 3.2: for v an extension of w of degree k, v(t, y) lies in the
    (m_1...m_r 2^k) star power of w{S_1..S_r} whenever each t_i lies in the
    m_i star power of the normal subset S_i, with the y entries in G.

    variables(w)[i-1] takes `subsets[i-1]` and the i-th entry of each
    multiplicity vector.  k is the minimal degree `extension_degree`
    recognises, which gives the tightest star power; a word that is not an
    extension of w is rejected.

    One value set per extension first tries to prove every vector at once.
    Star powers are monotone, so the values of v at the componentwise
    maximum `wide` of the vectors contain its values at each vector, and
    the bound is smallest at the least product `low`: if the values at
    `wide` lie in the (low 2^k) star power for every extension, the lemma
    holds at every (vector, extension) pair.  Otherwise the vectors are
    swept in order and, for each, the extensions in order, each through its
    value set, so the points are values.  A counterexample is (extension,
    vector, value, witness), the witness following the extension's
    variables.  `swept` counts the values tested by the path that decided:
    the values at `wide` when the proof holds, else the per-vector values.
    """
    vars_ = _require_normal_subsets(w, subsets)
    mvecs = [tuple(m) for m in multiplicities]
    if any(len(m) != len(vars_) for m in mvecs):
        raise ArityMismatch(f"need one multiplicity per variable of {render(w)}")
    degrees = [extension_degree(v, w) for v in extensions]
    if None in degrees:
        raise PreconditionFailed(f"{render(extensions[degrees.index(None)])} is not an extension of {render(w)}")
    base = value_set(w, subsets, budget)
    G = base.members.group
    full = G.full_subgroup()

    def sweep(passes):
        """The first (extension, vector, value set, star power) of `passes`,
        (vector, multiplier) pairs, whose values escape the (multiplier 2^k)
        star power of w{S}, else None; with the values tested before it."""
        swept = 0
        for mvec, mult in passes:
            sets = {x: star_power(G, S, m) for x, S, m in zip(vars_, subsets, mvec)}
            for v, k in zip(extensions, degrees):
                vs = value_set_over(v, {u: sets.get(u, full) for u in variables(v)}, budget)
                star = star_power(G, base.members, mult * 2**k)
                if not star.mask[vs.values].all():
                    return (v, mvec, vs, star), swept
                swept += vs.size
        return None, swept

    if mvecs:
        escape, swept = sweep([(tuple(map(max, zip(*mvecs))), min(map(math.prod, mvecs)))])
        if escape is None:
            return SweepReport(None, swept, None)
    escape, swept = sweep((mvec, math.prod(mvec)) for mvec in mvecs)
    if escape is None:
        return SweepReport(None, swept, None)
    v, mvec, vs, star = escape
    i, value, wit = _first_escape(vs, star)
    return SweepReport((v, mvec, value, wit), swept + i, None)


def comm_congruence_modulus(K: Subset, L: Subset, N: Subset, budget: int | None = None) -> Subset:
    """The subgroup [K,N,K][L,N]."""
    knk = commutator_subgroup(commutator_subgroup(K, N, budget), K, budget)
    ln = commutator_subgroup(L, N, budget)
    return subgroup_product(knk, ln, budget)


def comm_congruence_sweep(
    K: Subset, L: Subset, N: Subset, budget: int | None
) -> SweepReport:
    """Lemma 2.8: [x,n] = [y,n][z,n] modulo M = [K,N,K][L,N] for x, y, z in
    K with x = yz modulo L, and n in N.  x runs as yzl with l in L∩K, so a
    counterexample is a point (y, z, l, n); `modulus` is M.

    Fix n.  With l = 1 the lemma says f(y) = [y,n]M is a homomorphism on K,
    and with y = z = 1 that f kills L∩K; together these give
    [yzl,n] = [yz,n][l,n] = [y,n][z,n], so the lemma holds exactly when
    both do.  The first is `check_linearity` of [x1,x2] in x1 over (K, N),
    whose failure {x1: y, y: s, x2: n} is the point (y, s, 0, n), 0 being
    the identity; the second asks the value set of [x1,x2] over (L∩K, N)
    to lie in M, and its least value outside, from (l, n), is the point
    (0, 0, l, n).  The budget bounds the linearity space and the value-set
    combination.  `swept` is |K|^2 |L∩K| |N| on a pass, and on a failure
    the linearity space, plus the escaping value's index for the kernel.
    """
    K, L, N = normal_tuple([K, L, N])
    modulus = comm_congruence_modulus(K, L, N, budget)
    lin = check_linearity(gamma(2), [K, N], 1, modulus, budget)
    if not lin.holds:
        ce = lin.counterexample
        return SweepReport((ce["x1"], ce["y"], 0, ce["x2"]), lin.space, modulus)
    lk = Subset(K.group, K.mask & L.mask)
    escape = _first_escape(value_set(gamma(2), [lk, N], budget), modulus)
    if escape is not None:
        i, _, (ell, n) = escape
        return SweepReport((0, 0, ell, n), lin.space + i, modulus)
    return SweepReport(None, K.order**2 * lk.order * N.order, modulus)
