"""Linear series for lower central and derived words.

A linear series runs from w(N)' up to w(N); each factor is generated by the
image of an annotated verbal subgroup v_i(M_i), where M_i is an outer
commutator extension of the base tuple and v_i is linear in one marked
component modulo the factor's lower term.  The derived-word series is built
by the recursive glueing of two half-size series; the containments used to
justify the glueing steps are theorems, so their failure raises
InternalInvariantViolation (it would mean a bug in this module).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

from .errors import InternalInvariantViolation, PreconditionFailed
from .groups import (
    Subset,
    closure,
    commutator_subgroup,
    normal_tuple,
    star_power,
    subgroup_product,
)
from .verbal import (
    LinearityReport,
    check_linearity,
    value_set,
    value_set_over,
    verbal_subgroup,
)
from .words import (
    Var,
    WordExpr,
    comm,
    delta,
    extension_degree,
    gamma,
    shift,
    substitute,
    variables,
    xvar,
    yvar,
)


@dataclass(frozen=True)
class AnnotatedEntry:
    """One tuple component M_j = source(base components), feeding `var`."""

    var: Var
    subgroup: Subset
    source: WordExpr
    components: tuple[int, ...]  # 1-based positions into the base tuple


@dataclass(frozen=True)
class SeriesFactor:
    index: int  # 1-based position in the ascending chain
    lower: Subset
    upper: Subset
    word: WordExpr
    entries: tuple[AnnotatedEntry, ...]  # canonical variable order
    linear_position: int  # 1-based into entries
    degree: int  # recorded extension degree of `word`
    provenance: str

    @property
    def linear_var(self) -> Var:
        return self.entries[self.linear_position - 1].var

    @property
    def subgroups(self) -> tuple[Subset, ...]:
        return tuple(e.subgroup for e in self.entries)


@dataclass(frozen=True)
class LinearSeries:
    kind: str  # "gamma" | "delta"
    parameter: int  # r for gamma, k for delta
    base: tuple[Subset, ...]  # the normal subgroups N_1..N_r
    terms: tuple[Subset, ...]  # ascending chain, bottom first
    factors: tuple[SeriesFactor, ...]

    @property
    def bottom(self) -> Subset:
        return self.terms[0]

    @property
    def top(self) -> Subset:
        return self.terms[-1]

    @property
    def word(self) -> WordExpr:
        return gamma(self.parameter) if self.kind == "gamma" else delta(self.parameter)


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise InternalInvariantViolation(message)


def _leaf_entry(j: int, sub: Subset) -> AnnotatedEntry:
    return AnnotatedEntry(
        var=xvar(j), subgroup=sub, source=xvar(1), components=(j,)
    )


def _canonical_factor(
    terms: Sequence[Subset],
    index: int,
    word: WordExpr,
    entries: Sequence[AnnotatedEntry],
    linear_var: Var,
    degree: int,
    provenance: str,
) -> SeriesFactor:
    """Factor `index` of the ascending chain `terms`, its entries sorted
    into variable order; `word` comes numbered as it was built."""
    entries = sorted(entries, key=lambda e: e.var)
    word_vars = set(variables(word))
    _require(
        word_vars == {e.var for e in entries} and len(entries) == len(word_vars),
        "annotation entries do not match the word's variables",
    )
    position = next(i for i, e in enumerate(entries, start=1) if e.var == linear_var)
    return SeriesFactor(
        index=index,
        lower=terms[index - 1],
        upper=terms[index],
        word=word,
        entries=tuple(entries),
        linear_position=position,
        degree=degree,
        provenance=provenance,
    )


def series_parameter(kind: str, arity: int) -> int:
    """The r or k of the `kind` series on `arity` tuple entries: r = arity,
    or k = floor(log2 arity), at least 1."""
    return arity if kind == "gamma" else max(1, arity.bit_length() - 1)


def build_series(kind: str, T: Sequence[Subset], budget: int | None = None) -> LinearSeries:
    """The `kind` series ("gamma" or "delta") on T, its r or k read from
    len(T) by `series_parameter`: the kind is named, not read from a word,
    as delta(1) and gamma(2) are the same word."""
    if kind == "gamma":
        return build_gamma_series(T, budget)
    return build_delta_series(T, series_parameter(kind, len(T)), budget)


# ---------------------------------------------------------------------------
# lower central series
# ---------------------------------------------------------------------------


def build_gamma_series(T: Sequence[Subset], budget: int | None = None) -> LinearSeries:
    """Chain P_{r+1} <= ... <= P_1 with factor i generated by the word on the
    tuple whose i-th entry is the length-i left-normed verbal subgroup.

    The series is kept on the group by ("gamma", r, subgroup masks); the
    containments between its chain and the length-(r-1) one are checked
    once, when it is built."""
    r = len(T)
    if r < 1:
        raise PreconditionFailed("gamma series needs a tuple of length >= 1")
    T = normal_tuple(T)
    key = ("gamma", r, tuple(sub.key for sub in T))
    return T[0].group.cached("series", key, _build_gamma, T, budget)


def _gamma_chain(
    subs: tuple[Subset, ...], budget: int | None
) -> tuple[list[tuple[AnnotatedEntry, ...]], list[Subset], list[Subset]]:
    """For the length-r tuple `subs`: the annotated tuple of each Q_i, whose
    i-th entry is the length-i verbal subgroup, and Q_i = gamma_r on it (both
    at i - 1), and the ascending chain P_{r+1} = [Q_1, Q_1], then
    P_i = Q_i P_{i+1} for i = r, ..., 1, whose top P_1 must be Q_1."""
    r = len(subs)
    entries_at: list[tuple[AnnotatedEntry, ...]] = []
    q_subgroups: list[Subset] = []
    for i in range(1, r + 1):
        gamma_i = verbal_subgroup(gamma(i), subs[:i], budget)
        gamma_entry = AnnotatedEntry(
            var=xvar(i), subgroup=gamma_i, source=gamma(i), components=tuple(range(1, i + 1))
        )
        entries = tuple(gamma_entry if j == i else _leaf_entry(j, sub) for j, sub in enumerate(subs, start=1))
        entries_at.append(entries)
        q_subgroups.append(verbal_subgroup(gamma(r), [e.subgroup for e in entries], budget))
    terms = [commutator_subgroup(q_subgroups[0], q_subgroups[0], budget)]
    for q in reversed(q_subgroups):
        terms.append(subgroup_product(q, terms[-1], budget))
    _require(terms[-1] == q_subgroups[0], "chain top must equal the full verbal subgroup")
    return entries_at, q_subgroups, terms


def _build_gamma(subs: tuple[Subset, ...], budget: int | None) -> LinearSeries:
    r = len(subs)
    entries_at, _, terms = _gamma_chain(subs, budget)
    _audit_gamma(subs, terms, budget)
    # factor j is P_{i+1} <= P_i with i = r + 1 - j, linear in x_i
    factors = tuple(
        _canonical_factor(terms, j, gamma(r), entries_at[r - j], xvar(r + 1 - j), 0, "gamma")
        for j in range(1, r + 1)
    )
    return LinearSeries(kind="gamma", parameter=r, base=subs, terms=tuple(terms), factors=factors)


def _audit_gamma(subs: tuple[Subset, ...], terms: list[Subset], budget: int | None) -> None:
    """Containments used between the length-r chain `terms` and the chain
    P* of the first r - 1 entries, with its Q*_i."""
    r = len(subs)
    if r < 2:
        return
    _, q_star, starred = _gamma_chain(subs[: r - 1], budget)
    last = subs[r - 1]
    for i, q in enumerate(q_star, start=1):
        # both chains ascend: terms[r - i] = P_{i+1}, starred[r - 1 - i] = P*_{i+1}
        fence = terms[r - i]
        left = commutator_subgroup(commutator_subgroup(q, last, budget), q, budget)
        _require(left <= fence, f"[Q*_{i},N_r,Q*_{i}] escapes P_{i + 1}")
        second = commutator_subgroup(starred[r - 1 - i], last, budget)
        _require(second <= fence, f"[P*_{i + 1},N_r] escapes P_{i + 1}")


# ---------------------------------------------------------------------------
# derived series
# ---------------------------------------------------------------------------


def delta_series_length(k: int) -> int:
    return 2**k + 2 ** (k - 1) - 1


def build_delta_series(
    T: Sequence[Subset], k: int, budget: int | None = None
) -> LinearSeries:
    """The ascending chain V_0 <= ... <= V_t, t = 2^k + 2^(k-1) - 1, kept on
    the group by ("delta", k, subgroup masks)."""
    if k < 1:
        raise PreconditionFailed("delta series needs k >= 1")
    if len(T) != 2**k:
        raise PreconditionFailed(f"delta series at k={k} needs a tuple of length {2**k}")
    T = normal_tuple(T)
    key = ("delta", k, tuple(sub.key for sub in T))
    return T[0].group.cached("series", key, _build_delta, T, k, budget)


def _build_delta(subs: tuple[Subset, ...], k: int, budget: int | None) -> LinearSeries:
    if k == 1:
        # delta(1) = gamma(2) = [x1,x2]: the same chain and factors
        base = build_gamma_series(subs, budget)
        factors = tuple(replace(f, provenance="delta-base") for f in base.factors)
        return replace(base, kind="delta", parameter=1, factors=factors)

    half = 2 ** (k - 1)
    first = build_delta_series(subs[:half], k - 1, budget)
    second = build_delta_series(subs[half:], k - 1, budget)
    d1, d2 = first.top, second.top
    dk = commutator_subgroup(d1, d2, budget)
    _require(
        dk == verbal_subgroup(delta(k), subs, budget),
        "top of the chain must be the full verbal subgroup",
    )
    a_sub = commutator_subgroup(d1, dk, budget)
    b_sub = commutator_subgroup(dk, d2, budget)
    v0 = commutator_subgroup(dk, dk, budget)
    _require(
        commutator_subgroup(first.bottom, d2, budget) <= a_sub,
        "three-subgroup-lemma step fails on the right half",
    )
    _require(
        commutator_subgroup(d1, second.bottom, budget) <= b_sub,
        "three-subgroup-lemma step fails on the left half",
    )
    _require(v0 <= a_sub, "derived subgroup of the top escapes the glueing term")

    # right half: [P, D2] A over the first half's terms P, from A up to D_k
    right_terms = [
        subgroup_product(commutator_subgroup(p, d2, budget), a_sub, budget)
        for p in first.terms
    ]
    _require(right_terms[0] == a_sub, "right half must start at the glueing term")
    _require(right_terms[-1] == dk, "right half must end at the full verbal subgroup")

    # auxiliary chain over the second half's terms, and the left half up to A
    w_terms = [
        subgroup_product(commutator_subgroup(d1, p, budget), b_sub, budget)
        for p in second.terms
    ]
    _require(w_terms[-1] == dk, "auxiliary chain must end at the full verbal subgroup")
    z_terms = [commutator_subgroup(d1, w, budget) for w in w_terms]
    left_terms = [v0] + [subgroup_product(z, v0, budget) for z in z_terms]
    _require(left_terms[-1] == a_sub, "left half must end at the glueing term")

    terms = tuple(left_terms) + tuple(right_terms[1:])
    for low, high in zip(terms, terms[1:]):
        _require(low <= high, "chain must ascend")

    leaves = [_leaf_entry(j, sub) for j, sub in enumerate(subs, start=1)]
    left_half, right_half = delta(k - 1), shift(delta(k - 1), half)
    factors: list[SeriesFactor] = []

    def add(word: WordExpr, entries, linear_var: Var, degree: int, provenance: str) -> None:
        index = len(factors) + 1
        factors.append(_canonical_factor(terms, index, word, entries, linear_var, degree, provenance))

    # the top factor: linear in the fresh y-component ranging over D_k
    y0 = yvar(1)
    y0_entry = AnnotatedEntry(
        var=y0, subgroup=dk, source=delta(k), components=tuple(range(1, 2**k + 1))
    )
    add(comm(left_half, comm(y0, right_half)), leaves + [y0_entry], y0, 1, "delta-top")

    # left factors, from the second half's factors shifted past the first
    # half and the y-block y1..y(half), over the first half's subgroups
    y_block = substitute(left_half, {v: yvar(v.index) for v in variables(left_half)})
    y_entries = [replace(e, var=yvar(e.var.index)) for e in leaves[:half]]
    for f in second.factors:
        word, entries, linear_var = _shift_annotation(f, half)
        entries = leaves[:half] + y_entries + entries
        add(comm(left_half, comm(y_block, word)), entries, linear_var, f.degree + 1, "delta-left")

    # right factors, from the first half's factors against the second half
    for f in first.factors:
        entries = list(f.entries) + leaves[half:]
        add(comm(f.word, right_half), entries, f.linear_var, f.degree, "delta-right")

    return LinearSeries(kind="delta", parameter=k, base=subs, terms=terms, factors=tuple(factors))


def _shift_annotation(
    factor: SeriesFactor, offset: int
) -> tuple[WordExpr, list[AnnotatedEntry], Var]:
    """Move every variable and component of a factor `offset` indices up:
    its x-variables from local positions 1..2^(k-1) to global ones, its
    y-variables above the y-block of that many."""
    word = shift(factor.word, offset)
    # a shift keeps the order of `variables`, so position i names the same one
    moved = dict(zip(variables(factor.word), variables(word)))
    entries = [
        replace(e, var=moved[e.var], components=tuple(c + offset for c in e.components))
        for e in factor.entries
    ]
    return word, entries, moved[factor.linear_var]


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


@dataclass
class FactorReport:
    """The checks on one factor of a series, in the series' factor order."""

    containment_ok: bool
    generation_ok: bool
    extension_ok: bool
    recognized_degree: int | None
    degree_ok: bool
    linearity: LinearityReport

    @property
    def ok(self) -> bool:
        return (
            self.containment_ok
            and self.generation_ok
            and self.extension_ok
            and self.degree_ok
            and self.linearity.holds
        )


@dataclass
class SeriesReport:
    endpoints_ok: bool
    factors: list[FactorReport]

    @property
    def all_ok(self) -> bool:
        return self.endpoints_ok and all(f.ok for f in self.factors)


def verify_series(
    series: LinearSeries,
    budget: int | None = None,
) -> SeriesReport:
    """Re-check every stated property of a built series, factor by factor."""
    base_subs = series.base
    G = base_subs[0].group
    base_word = series.word
    max_degree = 0 if series.kind == "gamma" else series.parameter - 1
    top_expected = verbal_subgroup(base_word, base_subs, budget)
    endpoints_ok = (
        series.top == top_expected
        and series.bottom == commutator_subgroup(series.top, series.top, budget)
    )
    reports: list[FactorReport] = []
    for f in series.factors:
        containment_ok = f.lower <= f.upper
        vs = value_set_over(f.word, {e.var: e.subgroup for e in f.entries}, budget)
        generation_ok = closure(G, Subset(G, f.lower.mask | vs.members.mask)) == f.upper
        extension_ok = len(f.entries) >= len(base_subs)
        for e in f.entries:
            expected = verbal_subgroup(
                e.source, [base_subs[c - 1] for c in e.components], budget
            )
            if expected != e.subgroup:
                extension_ok = False
            if e.var.family == "x" and e.var.index <= len(base_subs):
                j = e.var.index
                if j not in e.components or not (e.subgroup <= base_subs[j - 1]):
                    extension_ok = False
        recognized = extension_degree(f.word, base_word)
        degree_ok = (
            recognized is not None and recognized <= f.degree <= max_degree
        )
        # values inside the lower term make the word constant, so linear, there
        if vs.members <= f.lower:
            linearity = LinearityReport(space=0, holds=True)
        else:
            linearity = check_linearity(f.word, f.subgroups, f.linear_position, f.lower, budget=budget)
        reports.append(
            FactorReport(
                containment_ok=containment_ok,
                generation_ok=generation_ok,
                extension_ok=extension_ok,
                recognized_degree=recognized,
                degree_ok=degree_ok,
                linearity=linearity,
            )
        )
    return SeriesReport(endpoints_ok=endpoints_ok, factors=reports)


# ---------------------------------------------------------------------------
# generator-count bounds
# ---------------------------------------------------------------------------


@dataclass
class BoundRow:
    observed: int
    bound: int
    star_depth: int | None
    ok: bool


@dataclass
class BoundReport:
    base_values: int
    rows: list[BoundRow]

    @property
    def all_ok(self) -> bool:
        return all(r.ok for r in self.rows)


def generator_bound_report(
    series: LinearSeries, sets: Sequence[Subset], budget: int | None = None
) -> BoundReport:
    """Cardinality of each factor's generating value set against its bound.

    `sets[i]` is a normal subset generating the i-th subgroup of the base,
    and m is the size of the value set of the word over them.  For the
    lower central series the bound is m^(2^(r-1)).  For the derived series
    it is m^n with n = h^(2^k) * 2^(k-1), where h is the largest star-power
    depth actually needed to cover the per-entry generating sets.
    """
    G = series.base[0].group
    sets = normal_tuple(sets)
    for pos, (S, N) in enumerate(zip(sets, series.base), start=1):
        if closure(G, S) != N:
            raise PreconditionFailed(
                f"entry {pos}: generating subset does not generate the subgroup"
            )
    m = value_set(series.word, sets, budget).size
    rows: list[BoundRow] = []
    for f in series.factors:
        t_sets = [
            value_set(e.source, [sets[c - 1] for c in e.components], budget).members
            for e in f.entries
        ]
        observed = value_set_over(
            f.word, dict(zip((e.var for e in f.entries), t_sets)), budget
        ).size
        if series.kind == "gamma":
            depth, bound = None, m ** (2 ** (series.parameter - 1))
        else:
            k, depth = series.parameter, 0
            for e, t_vals in zip(f.entries, t_sets):
                if e.var.family == "x" and e.var.index <= 2**k:
                    s_j = sets[e.var.index - 1]
                    d = 0
                    while not t_vals <= star_power(G, s_j, d):
                        d += 1
                    depth = max(depth, d)
            bound = m ** (depth ** (2**k) * 2 ** (k - 1))
        rows.append(
            BoundRow(observed=observed, bound=bound, star_depth=depth, ok=observed <= bound)
        )
    return BoundReport(base_values=m, rows=rows)
