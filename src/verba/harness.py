"""Batch verification suites over a group catalog, plus survey and probe.

Every check id names one verification routine.  A suite row is one
(id, group, word, tuple) instance.  Every sweep is exhaustive: a row
passes, fails, or is skipped when its enumeration would exceed the budget.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, ClassVar, Sequence

import numpy as np

from .enumeration import DEFAULT_BUDGET
from .errors import (
    ArityMismatch,
    BadIndex,
    BudgetExceeded,
    InternalInvariantViolation,
    NotNormal,
    PowerConditionFailed,
    PreconditionFailed,
    UnknownCheckId,
    UnknownSpec,
    VerbaError,
    WordSyntaxError,
)
from .groups import (
    DEFAULT_ORDER_CAP,
    FiniteGroup,
    Subset,
    builtin_group,
    closure,
    load_group_file,
    normal_closure,
)
from .series import (
    LinearSeries,
    build_delta_series,
    build_gamma_series,
    generator_bound_report,
    verify_series,
)
from .verbal import (
    check_disjoint_split,
    check_substitution,
    class_generating_subset,
    comm_congruence_sweep,
    enumerate_values,
    extended_width_sweep,
    star_membership_sweep,
    value_set,
    verbal_subgroup,
    width_sweep,
)
from .words import (
    MAX_WORD_DEPTH,
    Power,
    Var,
    WordExpr,
    classify_outer_commutator,
    delta,
    enumerate_extended,
    gamma,
    parse_word,
    render,
    variables,
)

# One entry per verified statement; descriptions say what is checked, ids are
# the stable tokens used on the command line and in reports.
CHECK_IDS: tuple[tuple[str, str], ...] = (
    ("L2.1", "commutator word on disjoint halves equals the bracket of the half verbal subgroups"),
    ("L2.2", "substituted word has w*(G) = w(u1(G),...,ur(G))"),
    ("L2.3", "normal generating subsets generate the same verbal subgroup as the full subgroups"),
    ("L2.5", "value with one entry in a normal subset lies in its 2^(r-1) star power"),
    ("L2.6", "value with entries in m_i-star powers lies in the m1...mr star power of the value set"),
    ("L2.8", "commutator congruence [x,n] = [y,n][z,n] modulo [K,N,K][L,N]"),
    ("T2.10", "lower central linear series: containments, generation, linearity"),
    ("T2.11-bound", "lower central factor generating sets within m^(2^(r-1))"),
    ("C2.12", "value set over normal subgroups generates exactly the verbal subgroup (gamma)"),
    ("C2.13", "power words: gamma of powers equals the composed verbal subgroup"),
    ("L3.2", "extended-word values stay within the widened star power"),
    ("T3.6", "derived linear series: containments, generation, degree bounds, linearity"),
    ("T3.7-bound", "derived factor generating sets within m^(h^(2^k) 2^(k-1))"),
    ("C3.8", "value set over normal subgroups generates exactly the verbal subgroup (delta)"),
    ("C3.9", "power words: delta of powers equals the composed verbal subgroup"),
    ("CONJ", "arbitrary outer commutator: value set closure versus verbal subgroup"),
)

CHECK_ID_SET = tuple(i for i, _ in CHECK_IDS)

DEFAULT_CATALOG: tuple[str, ...] = tuple(
    [f"cyc:{n}" for n in range(1, 13)]
    + [f"dih:{n}" for n in range(2, 9)]
    + ["sym:3", "sym:4", "alt:4", "quat:8", "heis:3", "cyc:2 x sym:3", "cyc:3 x quat:8"]
)

PROBE_WORDS: tuple[str, ...] = ("[[x1,x2],x3,x4]", "[[x1,x2,x3],[[x4,x5],[x6,x7]]]")

_SUBSTITUTION_EXPONENTS = (2, 3)


@dataclass(frozen=True)
class CheckSpec:
    check_id: str
    group: str
    word: str
    tuple_spec: str
    mode: ClassVar[str] = "exhaustive"  # the CSV `mode` column; every check is exhaustive


@dataclass
class CheckResult:
    check_id: str
    group: str
    word: str
    tuple_spec: str
    mode: str
    status: str  # pass | fail | skip-budget
    detail: str = ""

    @property
    def failed(self) -> bool:
        return self.status == "fail"

    def as_dict(self) -> dict:
        return {
            "check": self.check_id,
            "group": self.group,
            "word": self.word,
            "tuple": self.tuple_spec,
            "mode": self.mode,
            "status": self.status,
            "detail": self.detail,
        }


# ---------------------------------------------------------------------------
# spec resolution
# ---------------------------------------------------------------------------


def resolve_group(spec: str, cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    import os

    if os.path.exists(spec):
        return load_group_file(spec, cap=cap)
    return builtin_group(spec, cap=cap)


def resolve_word(text: str) -> tuple[WordExpr, str]:
    """Word spec: gamma:r, delta:k, or literal word text, with the label.

    Literal text that is an outer commutator word once first powers and
    one-factor products are stripped resolves to the stripped word.

    gamma:r and delta:k are bounded by `series_variables` before any tree
    is built.  A parameter of more than nine digits is not a spec and falls
    through to the word parser, which rejects it.
    """
    m = re.fullmatch(r"(gamma|delta):0*(\d{1,9})", text.strip())
    if m:
        kind, n = m.group(1), int(m.group(2))
        if series_variables(kind, n) is None:
            raise WordSyntaxError(
                f"{m.group(0)} needs 1 to {MAX_WORD_DEPTH + 1} variables", m.start(2)
            )
        return (gamma(n) if kind == "gamma" else delta(n)), text.strip()
    expr = parse_word(text)
    return classify_outer_commutator(expr) or expr, render(expr)


def series_variables(kind: str, n: int) -> int | None:
    """The number of variables of gamma(n), n, or of delta(n), 2^n, if it is
    1 to MAX_WORD_DEPTH + 1 as for parsed text (1 <= r <= 101, k <= 6), else
    None.  It bounds gamma:r, delta:k and `series --r/--k` before any build."""
    leaves = n if kind == "gamma" else 2 ** min(n, MAX_WORD_DEPTH)
    return int(leaves) if 1 <= leaves <= MAX_WORD_DEPTH + 1 else None


def word_arity(text: str) -> int:
    """The number of tuple entries a row with word spec `text` takes: the
    word's variables, or 3 for `-`, L2.8's (K, L, N)."""
    return 3 if text == "-" else len(variables(resolve_word(text)[0]))


def _require_ocw(word: WordExpr, what: str) -> WordExpr:
    tree = classify_outer_commutator(word)
    if tree is None:
        raise PreconditionFailed(f"{what} needs an outer commutator word")
    return tree


@dataclass(frozen=True)
class ParsedTuple:
    """A tuple spec read against a group: the normal subgroups N_i, a normal
    subset generating each (the `set:` subset, else N_i itself) and the
    entry texts."""

    subgroups: tuple[Subset, ...]
    generators: tuple[Subset, ...]
    labels: tuple[str, ...]


def parse_tuple_spec(text: str, G: FiniteGroup) -> ParsedTuple:
    """Comma-separated entries: G, derived, center, ncl(i,...), set:(i,...);n=k.

    A `set:` entry is a normal subset S, standing for the subgroup it
    generates, and all n-th powers of that subgroup must lie in S.  A parsed
    tuple is memoised on the group by the spec text; a spec that raises is
    not stored, so it raises again on every call.
    """
    return G.cached("tuple_spec", text, _parse_tuple_spec, text, G)


def _parse_tuple_spec(text: str, G: FiniteGroup) -> ParsedTuple:
    subgroups: list[Subset] = []
    generators: list[Subset] = []
    labels: list[str] = []
    for pos, part in enumerate(_split_entries(text), start=1):
        part = part.strip()
        labels.append(part)
        subset = None
        if part == "G":
            sub = G.full_subgroup()
        elif part == "derived":
            sub = G.derived_subgroup()
        elif part == "center":
            sub = G.center()
        elif part.startswith("ncl(") and part.endswith(")"):
            sub = normal_closure(G, _int_list(part[4:-1]))
        elif part.startswith("set:"):
            m = re.fullmatch(r"set:\(?([\d,\s]*)\)?;n=(\d+)", part)
            if not m:
                raise UnknownSpec(f"cannot parse tuple entry {part!r}")
            subset = G.subset(_int_list(m.group(1))).require_normal_subset()
            sub = closure(G, subset)
            n = int(m.group(2))
            if not subset.mask[G.pow_arr(sub.elements, n)].all():
                raise PowerConditionFailed(
                    f"entry {pos}: some {n}-th power escapes the subset"
                )
        else:
            raise UnknownSpec(f"unknown tuple entry {part!r}")
        if not sub.is_normal:
            raise NotNormal(f"entry {pos} (order {sub.order}) is not normal")
        subgroups.append(sub)
        generators.append(sub if subset is None else subset)
    return ParsedTuple(tuple(subgroups), tuple(generators), tuple(labels))


def _split_entries(text: str) -> list[str]:
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))  # a trailing comma leaves an empty entry
    if parts == [""]:
        raise UnknownSpec("empty tuple spec")
    return parts


def _int_list(text: str) -> list[int]:
    out = []
    for tok in re.split(r"[,\s]+", text.strip()):
        if tok:
            if not tok.isdecimal():
                raise BadIndex(f"element index {tok!r} is not a number")
            out.append(int(tok))
    return out


def default_tuple_specs(G: FiniteGroup, r: int, seed: int) -> list[str]:
    """Deterministic tuple specs exercising proper normal subgroups too."""
    specs = [",".join(["G"] * r)]
    specs.append(",".join(["derived"] * r))
    specs.append(",".join(["center"] * r))
    cycle = ["G", "derived", "center"]
    specs.append(",".join(cycle[i % 3] for i in range(r)))
    if G.order > 1:
        rng = np.random.default_rng([seed, G.order, *G.label.encode()])
        picks = [int(rng.integers(1, G.order)) for _ in range(r)]
        specs.append(",".join(f"ncl({p})" for p in picks))
    return _distinct_specs(G, specs)


def _distinct_specs(G: FiniteGroup, specs: list[str]) -> list[str]:
    """`specs` less each one naming the same subgroups as an earlier one."""
    seen, out = set(), []
    for spec in specs:
        key = tuple(sub.key for sub in parse_tuple_spec(spec, G).subgroups)
        if key not in seen:
            seen.add(key)
            out.append(spec)
    return out


# ---------------------------------------------------------------------------
# individual checks
# ---------------------------------------------------------------------------


def _result(spec: CheckSpec, status: str, detail: str = "") -> CheckResult:
    return CheckResult(
        check_id=spec.check_id,
        group=spec.group,
        word=spec.word,
        tuple_spec=spec.tuple_spec,
        mode=spec.mode,
        status=status,
        detail=detail,
    )


def _check_disjoint(spec, G, word, tup, budget) -> CheckResult:
    tree = _require_ocw(word, "L2.1")
    if isinstance(tree, Var):
        return _result(spec, "pass", "single variable, nothing to split")
    rep = check_disjoint_split(tree, tup.subgroups, budget)
    detail = f"|w(N)|={rep.whole.order} |[alpha,beta]|={rep.left.order}x{rep.right.order}"
    return _result(spec, "pass" if rep.equal else "fail", detail)


def _check_substitution(spec, G, word, tup, budget) -> CheckResult:
    tree = _require_ocw(word, "L2.2")
    vars_ = variables(tree)
    worst = ""
    for combo in range(2 ** len(vars_)):
        exps = [_SUBSTITUTION_EXPONENTS[(combo >> i) & 1] for i in range(len(vars_))]
        args = [Power(v, e) for v, e in zip(vars_, exps)]
        rep = check_substitution(tree, args, G, budget)
        if not rep.equal:
            return _result(
                spec,
                "fail",
                f"exponents {tuple(exps)}: {rep.direct_order} != {rep.composed_order}",
            )
        worst = f"last orders {rep.direct_order}={rep.composed_order}"
    return _result(spec, "pass", f"{2 ** len(vars_)} exponent patterns; {worst}")


def _check_generators(spec, G, word, tup, budget) -> CheckResult:
    tree = _require_ocw(word, "L2.3")
    via_s = verbal_subgroup(tree, _class_generating_subsets(tup), budget)
    via_n = verbal_subgroup(tree, tup.subgroups, budget)
    detail = f"|<w{{S}}>|={via_s.order} |<w{{N}}>|={via_n.order}"
    return _result(spec, "pass" if via_s == via_n else "fail", detail)


def _class_generating_subsets(tup: ParsedTuple) -> list[Subset]:
    return [class_generating_subset(s) for s in tup.subgroups]


def _check_star_membership(spec, G, word, tup, budget) -> CheckResult:
    tree = _require_ocw(word, "L2.5")
    rep = star_membership_sweep(tree, _class_generating_subsets(tup), budget)
    if not rep.holds:
        pos, value, wit = rep.counterexample
        return _result(spec, "fail", f"position {pos}, value {value} from {wit}")
    positions = len(variables(tree))
    return _result(spec, "pass", f"{rep.swept} collapsed tuples over {positions} positions")


def _width_vectors(r: int) -> list[tuple[int, ...]]:
    out = [tuple([1] * r), tuple([2] + [1] * (r - 1))]
    if r > 1:
        out.append(tuple([1] * (r - 1) + [2]))
    out.append(tuple([2] * r))
    return out


def _check_width(spec, G, word, tup, budget) -> CheckResult:
    tree = _require_ocw(word, "L2.6")
    mvecs = _width_vectors(len(variables(tree)))
    rep = width_sweep(tree, _class_generating_subsets(tup), mvecs, budget)
    if not rep.holds:
        _, mvec, value, wit = rep.counterexample
        return _result(spec, "fail", f"m={mvec}, value {value} from {wit}")
    return _result(spec, "pass", f"{len(mvecs)} multiplicity vectors")


def _check_comm_congruence(spec, G, word, tup, budget) -> CheckResult:
    subs = tup.subgroups
    K = subs[0]
    L = subs[1 % len(subs)]
    N = subs[2 % len(subs)]
    rep = comm_congruence_sweep(K, L, N, budget)
    if not rep.holds:
        return _result(spec, "fail", f"(y,z,l,n)={rep.counterexample}")
    return _result(
        spec,
        "pass",
        f"|K|={K.order} |L|={L.order} |N|={N.order} modulus={rep.modulus.order} ({rep.swept} tuples)",
    )


def _series(spec, word, tup, budget, audit=False) -> LinearSeries:
    """The gamma series of `tup` for the T2 ids, the delta series for T3."""
    if spec.check_id.startswith("T2."):
        return build_gamma_series(tup.subgroups, budget, audit=audit)
    tree = _require_ocw(word, spec.check_id)
    k = max(1, len(variables(tree)).bit_length() - 1)
    return build_delta_series(tup.subgroups, k, budget)


def _check_series(spec, G, word, tup, budget) -> CheckResult:
    series = _series(spec, word, tup, budget, audit=G.order <= 48)
    rep = verify_series(series, budget=budget)
    count = f"{rep.factor_count} factors" if series.kind == "gamma" else f"t={rep.factor_count}"
    detail = f"{count}, orders {[t.order for t in series.terms]}"
    if not rep.all_ok:
        bad = [f.index for f in rep.factors if not f.ok]
        detail += f"; failing factors {bad}"
    return _result(spec, "pass" if rep.all_ok else "fail", detail)


def _check_bound(spec, G, word, tup, budget) -> CheckResult:
    series = _series(spec, word, tup, budget)
    rep = generator_bound_report(series, _class_generating_subsets(tup), budget)
    detail = f"m={rep.base_values}, observed {[r.observed for r in rep.rows]}"
    return _result(spec, "pass" if rep.all_ok else "fail", detail)


def _check_concise_on_normal(spec, G, word, tup, budget) -> CheckResult:
    """Value set computed two independent ways; its closure is the verbal subgroup."""
    tree = _require_ocw(word, spec.check_id)
    sets = tup.subgroups
    vs = value_set(tree, sets, budget)
    direct = _value_set_by_direct_enumeration(tree, sets, budget)
    if direct is not None and (
        direct.shape != vs.values.shape or not np.array_equal(direct, vs.values)
    ):
        return _result(spec, "fail", "factorised and direct value sets differ")
    sub = closure(G, vs.members)
    verbal = verbal_subgroup(tree, tup.generators, budget)
    ok = sub == verbal and G.order % sub.order == 0 and bool(sub.mask[vs.values].all())
    return _result(
        spec,
        "pass" if ok else "fail",
        f"m={vs.size} |w(N)|={sub.order}",
    )


def _value_set_by_direct_enumeration(expr, sets, budget) -> np.ndarray | None:
    """Raw assignment-space enumeration, as an independent cross-check;
    None when the space is too large to keep the cross-check cheap."""
    limit = DEFAULT_BUDGET if budget is None else budget
    try:
        return enumerate_values(expr, dict(zip(variables(expr), sets)), min(limit, 2_000_000))
    except BudgetExceeded:
        return None


def _check_power_words(spec, G, word, tup, budget) -> CheckResult:
    """Non-commutator argument words x^e: composition matches substitution."""
    tree = _require_ocw(word, spec.check_id)
    vars_ = variables(tree)
    exps = [_SUBSTITUTION_EXPONENTS[i % 2] for i in range(len(vars_))]
    args = [Power(v, e) for v, e in zip(vars_, exps)]
    rep = check_substitution(tree, args, G, budget)
    sep = "=" if rep.direct_order == rep.composed_order else " != "
    detail = f"exponents {tuple(exps)}, orders {rep.direct_order}{sep}{rep.composed_order}"
    return _result(spec, "pass" if rep.equal else "fail", detail)


def _check_extended_width(spec, G, word, tup, budget) -> CheckResult:
    tree = _require_ocw(word, "L3.2")
    r = len(variables(tree))
    ext = enumerate_extended(tree, 1, 2)
    mvecs = (tuple([1] * r), tuple([2] + [1] * (r - 1)))
    rep = extended_width_sweep(ext, tree, _class_generating_subsets(tup), mvecs, budget)
    if not rep.holds:
        member, mvec, value, _ = rep.counterexample
        return _result(spec, "fail", f"{render(member)} with m={mvec}: value {value} escapes")
    return _result(spec, "pass", f"{len(ext)} extended words x {len(mvecs)} multiplicity vectors")


def _check_probe(spec, G, word, tup, budget) -> CheckResult:
    tree = _require_ocw(word, "CONJ")
    if len(variables(tree)) > 7:
        raise PreconditionFailed("probe words are capped at 7 leaves")
    vs = value_set(tree, tup.subgroups, budget)
    sub = closure(G, vs.members)
    verbal = verbal_subgroup(tree, tup.generators, budget)
    ok = sub == verbal and G.order % sub.order == 0
    return _result(spec, "pass" if ok else "fail", f"m={vs.size} |w(N)|={sub.order}")


_CHECK_TABLE: dict[str, Callable] = {
    "L2.1": _check_disjoint,
    "L2.2": _check_substitution,
    "L2.3": _check_generators,
    "L2.5": _check_star_membership,
    "L2.6": _check_width,
    "L2.8": _check_comm_congruence,
    "T2.10": _check_series,
    "T2.11-bound": _check_bound,
    "C2.12": _check_concise_on_normal,
    "C2.13": _check_power_words,
    "L3.2": _check_extended_width,
    "T3.6": _check_series,
    "T3.7-bound": _check_bound,
    "C3.8": _check_concise_on_normal,
    "C3.9": _check_power_words,
    "CONJ": _check_probe,
}


def run_check(
    spec: CheckSpec,
    G: FiniteGroup | None = None,
    budget: int | None = None,
    cap: int = DEFAULT_ORDER_CAP,
) -> CheckResult:
    """Dispatch one check; resolution errors become failed results upstream."""
    if spec.check_id not in _CHECK_TABLE:
        raise UnknownCheckId(f"unknown check id {spec.check_id!r}")
    group = G if G is not None else resolve_group(spec.group, cap)
    if spec.word == "-" and spec.check_id != "L2.8":
        raise VerbaError(f"{spec.check_id} needs a word; '-' stands for none in L2.8 only")
    word = None if spec.word == "-" else resolve_word(spec.word)[0]
    tup = parse_tuple_spec(spec.tuple_spec, group)
    if word is not None and len(tup.subgroups) != len(variables(word)):
        raise ArityMismatch(
            f"word {spec.word} needs {len(variables(word))} tuple entries, got {len(tup.subgroups)}"
        )
    try:
        return _CHECK_TABLE[spec.check_id](spec, group, word, tup, budget)
    except BudgetExceeded as exc:
        return _result(spec, "skip-budget", str(exc))


# ---------------------------------------------------------------------------
# suite
# ---------------------------------------------------------------------------


@dataclass
class SuiteReport:
    rows: list[CheckResult]
    seed: int

    @property
    def failures(self) -> list[CheckResult]:
        return [r for r in self.rows if r.failed]

    @property
    def skipped(self) -> list[CheckResult]:
        return [r for r in self.rows if r.status == "skip-budget"]

    @property
    def all_pass(self) -> bool:
        return all(r.status == "pass" for r in self.rows)

    def summary(self) -> str:
        counts: dict[str, int] = {}
        for r in self.rows:
            counts[r.status] = counts.get(r.status, 0) + 1
        parts = [f"{k}={v}" for k, v in sorted(counts.items())]
        return f"{len(self.rows)} checks: " + ", ".join(parts)


def _words_for(check_id: str, G: FiniteGroup) -> list[str]:
    small = G.order <= 24
    if check_id in ("L2.1", "L2.3", "L2.5", "L2.6", "L2.2"):
        return ["gamma:2", "gamma:3", "delta:2"]
    if check_id == "L2.8":
        return ["-"]
    if check_id == "T2.10":
        words = ["gamma:1", "gamma:2", "gamma:3"]
        if G.order <= 16:
            words.append("gamma:4")
        return words
    if check_id in ("T2.11-bound", "C2.12", "C2.13"):
        return ["gamma:2", "gamma:3"]
    if check_id == "L3.2":
        return ["gamma:2", "delta:2"]
    if check_id in ("T3.6", "T3.7-bound"):
        return ["delta:1"] + (["delta:2"] if small else [])
    if check_id in ("C3.8", "C3.9"):
        return ["delta:2"] if small else ["delta:1"]
    if check_id == "CONJ":
        return list(PROBE_WORDS)
    raise UnknownCheckId(check_id)


def _require_seed(seed: int) -> None:
    """The seed picks the ncl(...) entries through numpy's generator, which
    takes no negative seed."""
    if seed < 0:
        raise VerbaError(f"seed must be at least 0, got {seed}")


def _tuples_for(check_id: str, G: FiniteGroup, arity: int, seed: int) -> list[str]:
    if check_id in ("T3.6", "T3.7-bound"):
        return _distinct_specs(G, [",".join(["G"] * arity), ",".join(["derived"] * arity)])
    return default_tuple_specs(G, arity, seed)


def build_suite_specs(
    catalog: Sequence[str],
    ids: Sequence[str],
    seed: int = 0,
    cap: int = DEFAULT_ORDER_CAP,
) -> tuple[list[CheckSpec], dict[str, FiniteGroup]]:
    for check_id in ids:
        if check_id not in _CHECK_TABLE:
            raise UnknownCheckId(f"unknown check id {check_id!r}")
    _require_seed(seed)
    groups: dict[str, FiniteGroup] = {}
    specs: list[CheckSpec] = []
    for gspec in catalog:
        if gspec not in groups:
            groups[gspec] = resolve_group(gspec, cap)
        G = groups[gspec]
        for check_id in CHECK_ID_SET:
            if check_id not in ids:
                continue
            for wspec in _words_for(check_id, G):
                for tspec in _tuples_for(check_id, G, word_arity(wspec), seed):
                    specs.append(CheckSpec(check_id, gspec, wspec, tspec))
    return specs, groups


def run_suite(
    catalog: Sequence[str],
    ids: Sequence[str] | None = None,
    seed: int = 0,
    budget: int | None = None,
    cap: int = DEFAULT_ORDER_CAP,
) -> SuiteReport:
    """Cartesian sweep of checks over the catalog, serial, in a fixed row order."""
    ids = list(ids) if ids is not None else list(CHECK_ID_SET)
    specs, groups = build_suite_specs(catalog, ids, seed=seed, cap=cap)
    rows = []
    for spec in specs:
        try:
            rows.append(run_check(spec, G=groups[spec.group], budget=budget, cap=cap))
        except VerbaError as exc:
            rows.append(_result(spec, "fail", f"{type(exc).__name__}: {exc}"))
    return SuiteReport(rows=rows, seed=seed)


# ---------------------------------------------------------------------------
# survey and probe
# ---------------------------------------------------------------------------


@dataclass
class SurveyRow:
    group: str
    order: int
    word: str
    tuple_spec: str
    m: int
    verbal_order: int
    mode: str
    seed: int

    def as_dict(self) -> dict:
        return {
            "group": self.group,
            "order": self.order,
            "word": self.word,
            "tuple": self.tuple_spec,
            "m": self.m,
            "verbal_order": self.verbal_order,
            "mode": self.mode,
            "seed": self.seed,
        }


def survey(
    catalog: Sequence[str],
    word_spec: str,
    seed: int = 0,
    budget: int | None = None,
    cap: int = DEFAULT_ORDER_CAP,
    probe: bool = False,
) -> list[SurveyRow]:
    """One row per (group, tuple): m = |w{N}| against |w(N)|.

    With `probe`, the word is capped at 7 leaves and the closure of each value
    set is cross-checked against `verbal_subgroup`.
    """
    _require_seed(seed)
    word, label = resolve_word(word_spec)
    tree = _require_ocw(word, "probe" if probe else "survey")
    leaves = len(variables(tree))
    if probe and leaves > 7:
        raise PreconditionFailed("probe words are capped at 7 leaves")
    rows: list[SurveyRow] = []
    for gspec in catalog:
        G = resolve_group(gspec, cap)
        for tspec in default_tuple_specs(G, leaves, seed):
            tup = parse_tuple_spec(tspec, G)
            try:
                vs = value_set(tree, tup.subgroups, budget)
                sub = closure(G, vs.members)
                if probe and sub != verbal_subgroup(tree, tup.generators, budget):
                    raise InternalInvariantViolation(
                        f"{gspec} {tspec}: value-set closure differs from verbal subgroup"
                    )
                m, verbal_order, mode = vs.size, sub.order, "exhaustive"
            except BudgetExceeded:
                m, verbal_order, mode = 0, 0, "skipped"
            rows.append(
                SurveyRow(
                    group=gspec,
                    order=G.order,
                    word=label,
                    tuple_spec=tspec,
                    m=m,
                    verbal_order=verbal_order,
                    mode=mode,
                    seed=seed,
                )
            )
    rows.sort(key=lambda r: (r.m, r.order, r.group, r.tuple_spec))
    return rows
