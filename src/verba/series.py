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

import numpy as np

from .errors import InternalInvariantViolation, NotNormal, PreconditionFailed
from .groups import (
    Subset,
    closure,
    commutator_subgroup,
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
    max_y,
    shift_x,
    substitute,
    variables,
    x_shift,
    xvar,
    y_renumbering,
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
    index: int,
    lower: Subset,
    upper: Subset,
    word_raw: WordExpr,
    entries_raw: Sequence[AnnotatedEntry],
    linear_var: Var,
    degree: int,
    provenance: str,
) -> SeriesFactor:
    """Renumber y-variables canonically and sort entries into variable order."""
    mapping = y_renumbering(word_raw)
    word = substitute(word_raw, mapping) if mapping else word_raw
    renamed = [replace(e, var=mapping.get(e.var, e.var)) for e in entries_raw]
    renamed.sort(key=lambda e: e.var)
    word_vars = set(variables(word))
    _require(
        word_vars == {e.var for e in renamed} and len(renamed) == len(word_vars),
        "annotation entries do not match the word's variables",
    )
    lin = mapping.get(linear_var, linear_var)
    position = next(i for i, e in enumerate(renamed, start=1) if e.var == lin)
    return SeriesFactor(
        index=index,
        lower=lower,
        upper=upper,
        word=word,
        entries=tuple(renamed),
        linear_position=position,
        degree=degree,
        provenance=provenance,
    )


# ---------------------------------------------------------------------------
# lower central series
# ---------------------------------------------------------------------------


def _normal_tuple(T: Sequence[Subset]) -> tuple[Subset, ...]:
    """T as a tuple, checked to hold normal subgroups of one group."""
    T = tuple(T)
    for pos, sub in enumerate(T, start=1):
        if sub.group is not T[0].group:
            raise PreconditionFailed(f"entry {pos} belongs to a different group")
        if not sub.is_normal:
            raise NotNormal(f"entry {pos} (order {sub.order}) is not normal")
    return T


def build_gamma_series(
    T: Sequence[Subset], budget: int | None = None, audit: bool = False
) -> LinearSeries:
    """Chain P_{r+1} <= ... <= P_1 with factor i generated by the word on the
    tuple whose i-th entry is the length-i left-normed verbal subgroup.

    With `audit`, the containments between this chain and the length-(r-1)
    one are checked, also when the series comes from the memo.  The series
    is kept on the group by ("gamma", r, subgroup masks)."""
    r = len(T)
    if r < 1:
        raise PreconditionFailed("gamma series needs a tuple of length >= 1")
    T = _normal_tuple(T)
    key = ("gamma", r, tuple(sub.key for sub in T))
    series = T[0].group.cached("series", key, _build_gamma, T, budget)
    if audit:
        _audit_gamma(T, series.terms, budget)
    return series


def _build_gamma(subs: tuple[Subset, ...], budget: int | None) -> LinearSeries:
    r = len(subs)
    word = gamma(r)
    q_subgroups: dict[int, Subset] = {}
    entries_at: dict[int, tuple[AnnotatedEntry, ...]] = {}
    for i in range(1, r + 1):
        gamma_i = verbal_subgroup(gamma(i), subs[:i], budget)
        entries = []
        for j in range(1, r + 1):
            if j == i:
                entries.append(
                    AnnotatedEntry(
                        var=xvar(i),
                        subgroup=gamma_i,
                        source=gamma(i),
                        components=tuple(range(1, i + 1)),
                    )
                )
            else:
                entries.append(_leaf_entry(j, subs[j - 1]))
        entries_at[i] = tuple(entries)
        q_subgroups[i] = verbal_subgroup(word, [e.subgroup for e in entries], budget)
    top = q_subgroups[1]
    q_subgroups[r + 1] = commutator_subgroup(top, top, budget)
    p_subgroups: dict[int, Subset] = {r + 1: q_subgroups[r + 1]}
    for i in range(r, 0, -1):
        p_subgroups[i] = subgroup_product(q_subgroups[i], p_subgroups[i + 1], budget)
    _require(p_subgroups[1] == top, "chain top must equal the full verbal subgroup")
    terms = tuple(p_subgroups[i] for i in range(r + 1, 0, -1))
    factors = []
    for j in range(1, r + 1):
        i = r + 1 - j
        factors.append(
            _canonical_factor(
                index=j,
                lower=p_subgroups[i + 1],
                upper=p_subgroups[i],
                word_raw=word,
                entries_raw=entries_at[i],
                linear_var=xvar(i),
                degree=0,
                provenance="gamma",
            )
        )
    return LinearSeries(
        kind="gamma", parameter=r, base=subs, terms=terms, factors=tuple(factors)
    )


def _audit_gamma(subs: tuple[Subset, ...], terms: tuple[Subset, ...], budget) -> None:
    """Containments used between the length-r and length-(r-1) chains."""
    r = len(subs)
    if r < 2:
        return
    # both chains ascend: terms[pos] = P_{r+1-pos}, starred.terms[pos] = P*_{r-pos}
    p_subgroups = {r + 1 - pos: term for pos, term in enumerate(terms)}
    starred = build_gamma_series(subs[: r - 1], budget)
    p_star = {r - pos: starred.terms[pos] for pos in range(r)}
    q_star: dict[int, Subset] = {}
    for i in range(1, r):
        gamma_i = verbal_subgroup(gamma(i), subs[:i], budget)
        tuple_i = list(subs[: r - 1])
        tuple_i[i - 1] = gamma_i
        q_star[i] = verbal_subgroup(gamma(r - 1), tuple_i, budget)
    last = subs[r - 1]
    for i in range(1, r):
        fence = p_subgroups[i + 1]
        left = commutator_subgroup(commutator_subgroup(q_star[i], last, budget), q_star[i], budget)
        _require(left <= fence, f"[Q*_{i},N_r,Q*_{i}] escapes P_{i + 1}")
        second = commutator_subgroup(p_star[i + 1], last, budget)
        _require(second <= fence, f"[P*_{i + 1},N_r] escapes P_{i + 1}")


# ---------------------------------------------------------------------------
# derived series
# ---------------------------------------------------------------------------


def delta_series_length(k: int) -> int:
    return 2**k + 2 ** (k - 1) - 1


def build_delta_series(
    T: Sequence[Subset], k: int, budget: int | None = None
) -> LinearSeries:
    """The ascending chain V_0 <= ... <= V_t, t = 2^k + 2^(k-1) - 1."""
    if k < 1:
        raise PreconditionFailed("delta series needs k >= 1")
    if len(T) != 2**k:
        raise PreconditionFailed(f"delta series at k={k} needs a tuple of length {2**k}")
    series = _delta(_normal_tuple(T), k, budget)
    _require(
        len(series.factors) == delta_series_length(k),
        "factor count disagrees with 2^k + 2^(k-1) - 1",
    )
    return series


def _delta(subs: tuple[Subset, ...], k: int, budget: int | None) -> LinearSeries:
    """The delta series, kept on the group by ("delta", k, subgroup masks)."""
    key = ("delta", k, tuple(sub.key for sub in subs))
    return subs[0].group.cached("series", key, _build_delta, subs, k, budget)


def _build_delta(subs: tuple[Subset, ...], k: int, budget: int | None) -> LinearSeries:
    if k == 1:
        n1, n2 = subs
        v2 = commutator_subgroup(n1, n2, budget)
        v1 = commutator_subgroup(n1, v2, budget)
        v0 = commutator_subgroup(v2, v2, budget)
        _require(v0 <= v1 and v1 <= v2, "base chain must ascend")
        word = delta(1)
        bracket_entry = AnnotatedEntry(
            var=xvar(2), subgroup=v2, source=delta(1), components=(1, 2)
        )
        factors = (
            _canonical_factor(
                1, v0, v1, word, [_leaf_entry(1, n1), bracket_entry], xvar(2), 0, "delta-base"
            ),
            _canonical_factor(
                2, v1, v2, word, [_leaf_entry(1, n1), _leaf_entry(2, n2)], xvar(1), 0, "delta-base"
            ),
        )
        return LinearSeries(
            kind="delta", parameter=1, base=subs, terms=(v0, v1, v2), factors=factors
        )

    half = 2 ** (k - 1)
    s = delta_series_length(k - 1)
    t = delta_series_length(k)
    first = _delta(subs[:half], k - 1, budget)
    second = _delta(subs[half:], k - 1, budget)
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

    # right half: positions t-s .. t
    right_terms = [
        subgroup_product(commutator_subgroup(first.terms[i], d2, budget), a_sub, budget)
        for i in range(s + 1)
    ]
    _require(right_terms[0] == a_sub, "right half must start at the glueing term")
    _require(right_terms[-1] == dk, "right half must end at the full verbal subgroup")

    # auxiliary chain and left half: positions 0 .. t-s
    w_terms = [
        subgroup_product(commutator_subgroup(d1, second.terms[i], budget), b_sub, budget)
        for i in range(s + 1)
    ]
    _require(w_terms[-1] == dk, "auxiliary chain must end at the full verbal subgroup")
    z_terms = [commutator_subgroup(d1, w, budget) for w in w_terms]
    left_terms = [v0] + [subgroup_product(z, v0, budget) for z in z_terms]
    _require(left_terms[-1] == a_sub, "left half must end at the glueing term")

    terms = tuple(left_terms) + tuple(right_terms[1:])
    for low, high in zip(terms, terms[1:]):
        _require(low <= high, "chain must ascend")

    factors: list[SeriesFactor] = []

    # factor 1: linear in the fresh y-component ranging over the top subgroup
    y0 = yvar(1)
    word_top = comm(delta(k - 1), comm(y0, shift_x(delta(k - 1), half)))
    entries_top = [_leaf_entry(j, subs[j - 1]) for j in range(1, 2**k + 1)] + [
        AnnotatedEntry(
            var=y0, subgroup=dk, source=delta(k), components=tuple(range(1, 2**k + 1))
        )
    ]
    factors.append(
        _canonical_factor(
            1, terms[0], terms[1], word_top, entries_top, y0, 1, "delta-top"
        )
    )

    # left factors 2 .. t-s, built from the second half's factors, shifted
    for j in range(2, t - s + 1):
        sub_factor = second.factors[j - 2]
        shifted_word, shifted_entries, shifted_linear = _shift_annotation(
            sub_factor, half
        )
        y_block = _pure_y_delta(k - 1, max_y(shifted_word))
        w_word = comm(y_block, shifted_word)
        w_entries = [
            AnnotatedEntry(var=v, subgroup=subs[c - 1], source=xvar(1), components=(c,))
            for v, c in zip(variables(y_block), range(1, half + 1))
        ] + shifted_entries
        v_word = comm(delta(k - 1), w_word)
        v_entries = [_leaf_entry(j2, subs[j2 - 1]) for j2 in range(1, half + 1)] + w_entries
        factors.append(
            _canonical_factor(
                j,
                terms[j - 1],
                terms[j],
                v_word,
                v_entries,
                shifted_linear,
                sub_factor.degree + 1,
                "delta-left",
            )
        )

    # right factors t-s+1 .. t, from the first half's factors
    for i in range(1, s + 1):
        sub_factor = first.factors[i - 1]
        word_raw = comm(sub_factor.word, shift_x(delta(k - 1), half))
        entries_raw = list(sub_factor.entries) + [
            _leaf_entry(half + j2, subs[half + j2 - 1]) for j2 in range(1, half + 1)
        ]
        factors.append(
            _canonical_factor(
                t - s + i,
                terms[t - s + i - 1],
                terms[t - s + i],
                word_raw,
                entries_raw,
                sub_factor.linear_var,
                sub_factor.degree,
                "delta-right",
            )
        )

    return LinearSeries(
        kind="delta", parameter=k, base=subs, terms=terms, factors=tuple(factors)
    )


def _pure_y_delta(k: int, above: int) -> WordExpr:
    """delta(k) with its x-variables turned into fresh y-variables."""
    word = delta(k)
    return substitute(word, {v: yvar(above + v.index) for v in variables(word)})


def _shift_annotation(
    factor: SeriesFactor, offset: int
) -> tuple[WordExpr, list[AnnotatedEntry], Var]:
    """Move a factor built on local positions 1..2^(k-1) to global positions."""
    mapping = x_shift(factor.word, offset)
    entries = [
        replace(e, var=mapping.get(e.var, e.var), components=tuple(c + offset for c in e.components))
        for e in factor.entries
    ]
    linear = mapping.get(factor.linear_var, factor.linear_var)
    return substitute(factor.word, mapping), entries, linear


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


@dataclass
class FactorReport:
    index: int
    lower_order: int
    upper_order: int
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
        union = np.asarray(f.lower.mask | vs.members.mask)
        generation_ok = closure(G, np.flatnonzero(union)) == f.upper
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
        linearity = check_linearity(
            f.word,
            f.subgroups,
            f.linear_position,
            f.lower,
            budget=budget,
        )
        reports.append(
            FactorReport(
                index=f.index,
                lower_order=f.lower.order,
                upper_order=f.upper.order,
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
    for pos, (S, N) in enumerate(zip(sets, series.base), start=1):
        S.require_normal_subset()
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
