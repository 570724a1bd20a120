"""Batch verification suites over a group catalog, plus survey and probe.

Every check id names one verification routine.  A suite row is one
(id, group, word, tuple) instance.  Every sweep is exhaustive: a row
passes, fails, or is skipped when its enumeration would exceed the budget.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cache, partial
from typing import Callable, ClassVar, Sequence

import numpy as np

from .enumeration import DEFAULT_BUDGET
from .errors import (
    ArityMismatch,
    BadIndex,
    BudgetExceeded,
    InternalInvariantViolation,
    PowerConditionFailed,
    PreconditionFailed,
    UnknownCheckId,
    UnknownSpec,
    VerbaError,
    WordSyntaxError,
    as_int,
    clip,
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
from .series import build_series, generator_bound_report, series_parameter, verify_series
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
            bad = UnknownSpec(f"cannot parse tuple entry {clip(part)!r}")
            if not m:
                raise bad
            subset = G.subset(_int_list(m.group(1))).require_normal()
            sub = closure(G, subset)
            n = as_int(m.group(2), bad)
            if not subset.mask[G.pow_arr(sub.elements, n)].all():
                raise PowerConditionFailed(
                    f"entry {pos}: some {n}-th power escapes the subset"
                )
        else:
            raise UnknownSpec(f"unknown tuple entry {clip(part)!r}")
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
    """The comma-separated element indices of `text`."""
    return [element_index(tok) for tok in text.split(",")]


def element_index(text: str) -> int:
    """One element index of a tuple spec or of `eval --assign`: decimal
    digits, spaces around them allowed; an empty index, a sign or an
    underscore is no index."""
    bad = BadIndex(f"element index {clip(text.strip())!r} is not a number")
    if not text.strip().isdecimal():
        raise bad
    return as_int(text, bad)


def default_tuple_specs(G: FiniteGroup, r: int, seed: int) -> list[str]:
    """Deterministic tuple specs exercising proper normal subgroups too."""
    specs = [",".join(["G"] * r)]
    specs.append(",".join(["derived"] * r))
    specs.append(",".join(["center"] * r))
    cycle = ["G", "derived", "center"]
    specs.append(",".join(cycle[i % 3] for i in range(r)))
    if G.order > 1:
        picks = pcg64_picks([seed, G.order, *G.label.encode()], G.order, r)
        specs.append(",".join(f"ncl({p})" for p in picks))
    return _distinct_specs(G, specs)


_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hashmix(const: int, mult: int) -> Callable[[int], int]:
    """numpy `SeedSequence`'s 32-bit hash; its constant runs on from call to call."""
    def hashmix(value: int) -> int:
        nonlocal const
        value, const = value ^ const, const * mult & _M32
        value = value * const & _M32
        return value ^ value >> 16
    return hashmix


def pcg64_picks(entropy: Sequence[int], order: int, r: int) -> list[int]:
    """The picks of `r` calls of numpy's `default_rng(entropy).integers(1,
    order)` on one generator, for ints >= 0 and order >= 2.

    `SeedSequence` hashes the 32-bit words of the ints into a 4-word pool and
    expands it to PCG64's 128-bit state and increment.  PCG64 is O'Neill's LCG
    with XSL-RR output, two 32-bit draws to an output, low half first; Lemire's
    method maps a draw onto the range, rejecting the few that would bias it.
    Only numpy's path for a range below 2^32 is ported: a group order is
    bounded by its n×n table, so it never gets there.
    """
    words = [v >> 32 * i & _M32 for v in entropy for i in range(max(1, -(-v.bit_length() // 32)))]
    hashmix = _hashmix(0x43B0D7E5, 0x931E8875)
    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)] + words[4:]
    for src, dst in [(s, d) for s in range(len(pool)) for d in range(4) if s != d]:
        x = (0xCA01F9DD * pool[dst] - 0x4973F715 * hashmix(pool[src])) & _M32
        pool[dst] = x ^ x >> 16  # the pool is pool[:4]; the rest is entropy past it
    out = _hashmix(0x8B51F9DD, 0x58F38DED)
    s = [out(pool[i % 4]) for i in range(8)]  # the four 64-bit words, low half first
    seed, seq = (s[i + 1] << 96 | s[i] << 64 | s[i + 3] << 32 | s[i + 2] for i in (0, 4))
    inc = (seq << 1 | 1) & _M128
    def uint32s(state: int):
        while True:
            state = (state * _PCG64_MULT + inc) & _M128
            x, rot = (state >> 64 ^ state) & _M64, state >> 122
            x = (x >> rot | x << (64 - rot)) & _M64
            yield from (x & _M32, x >> 32)
    draws = uint32s(((inc + seed) * _PCG64_MULT + inc) & _M128)  # as srandom leaves it
    span, picks = order - 1, []
    for _ in range(r):
        m = next(draws) * span if span > 1 else 0
        while m & _M32 < (1 << 32) % span:
            m = next(draws) * span
        picks.append(1 + (m >> 32))
    return picks


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
    return CheckResult(spec.check_id, spec.group, spec.word, spec.tuple_spec, spec.mode, status, detail)


def _verdict(ok: bool, detail: str) -> tuple[str, str]:
    return ("pass" if ok else "fail"), detail


def _check_disjoint(G, tree, tup, budget) -> tuple[str, str]:
    if isinstance(tree, Var):
        return "pass", "single variable, nothing to split"
    rep = check_disjoint_split(tree, tup.subgroups, budget)
    return _verdict(rep.equal, f"|w(N)|={rep.whole.order} |[alpha,beta]|={rep.left.order}x{rep.right.order}")


def _check_substitution(G, tree, tup, budget) -> tuple[str, str]:
    r = len(variables(tree))
    worst = ""
    for combo in range(2**r):
        exps = tuple(_SUBSTITUTION_EXPONENTS[(combo >> i) & 1] for i in range(r))
        rep = _power_substitution(tree, exps, G, budget)
        if not rep.equal:
            return "fail", f"exponents {exps}: {rep.direct_order} != {rep.composed_order}"
        worst = f"last orders {rep.direct_order}={rep.composed_order}"
    return "pass", f"{2**r} exponent patterns; {worst}"


def _power_substitution(tree, exps, G, budget):
    """`check_substitution` of `tree` with its i-th variable x raised to exps[i]."""
    return check_substitution(tree, [Power(v, e) for v, e in zip(variables(tree), exps)], G, budget)


def _check_generators(G, tree, tup, budget) -> tuple[str, str]:
    via_s = verbal_subgroup(tree, _class_generating_subsets(tup), budget)
    via_n = verbal_subgroup(tree, tup.subgroups, budget)
    return _verdict(via_s == via_n, f"|<w{{S}}>|={via_s.order} |<w{{N}}>|={via_n.order}")


def _class_generating_subsets(tup: ParsedTuple) -> list[Subset]:
    return [class_generating_subset(s) for s in tup.subgroups]


def _check_star_membership(G, tree, tup, budget) -> tuple[str, str]:
    rep = star_membership_sweep(tree, _class_generating_subsets(tup), budget)
    if not rep.holds:
        pos, value, wit = rep.counterexample
        return "fail", f"position {pos}, value {value} from {wit}"
    return "pass", f"{rep.swept} collapsed tuples over {len(variables(tree))} positions"


def _width_vectors(r: int) -> list[tuple[int, ...]]:
    out = [tuple([1] * r), tuple([2] + [1] * (r - 1))]
    if r > 1:
        out.append(tuple([1] * (r - 1) + [2]))
    out.append(tuple([2] * r))
    return out


def _check_width(G, tree, tup, budget) -> tuple[str, str]:
    mvecs = _width_vectors(len(variables(tree)))
    rep = width_sweep(tree, _class_generating_subsets(tup), mvecs, budget)
    if not rep.holds:
        _, mvec, value, wit = rep.counterexample
        return "fail", f"m={mvec}, value {value} from {wit}"
    return "pass", f"{len(mvecs)} multiplicity vectors"


def _check_comm_congruence(G, tree, tup, budget) -> tuple[str, str]:
    K, L, N = tup.subgroups
    rep = comm_congruence_sweep(K, L, N, budget)
    if not rep.holds:
        return "fail", f"(y,z,l,n)={rep.counterexample}"
    return "pass", f"|K|={K.order} |L|={L.order} |N|={N.order} modulus={rep.modulus.order} ({rep.swept} tuples)"


def _check_series(kind, G, tree, tup, budget) -> tuple[str, str]:
    series = build_series(kind, tup.subgroups, budget)
    rep = verify_series(series, budget=budget)
    count = f"{len(rep.factors)} factors" if series.kind == "gamma" else f"t={len(rep.factors)}"
    detail = f"{count}, orders {[t.order for t in series.terms]}"
    if not rep.all_ok:
        detail += f"; failing factors {[f.index for f, fr in zip(series.factors, rep.factors) if not fr.ok]}"
    return _verdict(rep.all_ok, detail)


def _check_bound(kind, G, tree, tup, budget) -> tuple[str, str]:
    series = build_series(kind, tup.subgroups, budget)
    rep = generator_bound_report(series, _class_generating_subsets(tup), budget)
    return _verdict(rep.all_ok, f"m={rep.base_values}, observed {[r.observed for r in rep.rows]}")


def _gap(G, tree, tup, budget):
    """(w{N}, the subgroup it generates, ok) over `tup.subgroups`: ok says
    that subgroup is the verbal subgroup on `tup.generators` (Lemma 2.3 for
    a `set:` entry), its order divides |G| and it holds every value."""
    vs = value_set(tree, tup.subgroups, budget)
    sub = closure(G, vs.members)
    verbal = verbal_subgroup(tree, tup.generators, budget)
    return vs, sub, sub == verbal and G.order % sub.order == 0 and bool(sub.mask[vs.values].all())


def _check_concise_on_normal(G, tree, tup, budget) -> tuple[str, str]:
    """Value set computed two independent ways; its closure is the verbal subgroup."""
    direct = _value_set_by_direct_enumeration(tree, tup.subgroups, budget)
    vs, sub, ok = _gap(G, tree, tup, budget)
    if direct is not None and not np.array_equal(direct, vs.values):
        return "fail", "factorised and direct value sets differ"
    return _verdict(ok, f"m={vs.size} |w(N)|={sub.order}")


def _value_set_by_direct_enumeration(expr, sets, budget) -> np.ndarray | None:
    """Raw assignment-space enumeration, as an independent cross-check;
    None when the space is too large to keep the cross-check cheap."""
    limit = DEFAULT_BUDGET if budget is None else budget
    try:
        return enumerate_values(expr, dict(zip(variables(expr), sets)), min(limit, 2_000_000))
    except BudgetExceeded:
        return None


def _check_power_words(G, tree, tup, budget) -> tuple[str, str]:
    """Non-commutator argument words x^e: composition matches substitution."""
    exps = tuple(_SUBSTITUTION_EXPONENTS[i % 2] for i in range(len(variables(tree))))
    rep = _power_substitution(tree, exps, G, budget)
    sep = "=" if rep.direct_order == rep.composed_order else " != "
    return _verdict(rep.equal, f"exponents {exps}, orders {rep.direct_order}{sep}{rep.composed_order}")


def _check_extended_width(G, tree, tup, budget) -> tuple[str, str]:
    r = len(variables(tree))
    ext = enumerate_extended(tree, 1, 2)
    mvecs = (tuple([1] * r), tuple([2] + [1] * (r - 1)))
    rep = extended_width_sweep(ext, tree, _class_generating_subsets(tup), mvecs, budget)
    if not rep.holds:
        member, mvec, value, _ = rep.counterexample
        return "fail", f"{render(member)} with m={mvec}: value {value} escapes"
    return "pass", f"{len(ext)} extended words x {len(mvecs)} multiplicity vectors"


def _probe_word(tree: WordExpr) -> WordExpr:
    if len(variables(tree)) > 7:
        raise PreconditionFailed("probe words are capped at 7 leaves")
    return tree


def _check_probe(G, tree, tup, budget) -> tuple[str, str]:
    vs, sub, ok = _gap(G, _probe_word(tree), tup, budget)
    return _verdict(ok, f"m={vs.size} |w(N)|={sub.order}")


def _series_tuples(G: FiniteGroup, arity: int, seed: int) -> list[str]:
    """The T3 series rows: all G, and all derived."""
    return _distinct_specs(G, [",".join(["G"] * arity), ",".join(["derived"] * arity)])


@dataclass(frozen=True)
class Check:
    """One check id.  `run(G, tree, tup, budget)` decides a row and returns
    (status, detail), `tree` being the word as the row admits it.  `kind` is
    the word the id takes: `-` (none, on the three entries K,L,N), `gamma`
    (exactly gamma(r) on r entries), `delta` (exactly delta(k) on 2^k
    entries) or `ocw` (any outer commutator word).  `words(order)` gives the
    suite words on a group of that order, `tuples(G, arity, seed)` the suite
    tuples of each."""

    description: str
    run: Callable[..., tuple[str, str]]
    kind: str
    words: Callable[[int], Sequence[str]]
    tuples: Callable[[FiniteGroup, int, int], list[str]] = default_tuple_specs


_LEMMA_WORDS = ("gamma:2", "gamma:3", "delta:2")
_GAMMA_WORDS = ("gamma:2", "gamma:3")


def _delta_words(n: int) -> tuple[str, ...]:
    """The delta words T3.6 and T3.7-bound take on a group of order n, and
    C3.8 and C3.9 the last of them: `delta:2` only up to order 24, since
    the default CSV has `delta:1` rows alone above it."""
    return ("delta:1", "delta:2") if n <= 24 else ("delta:1",)


# The check registry: one row per verified statement, in suite order; ids are
# the stable tokens used on the command line and in reports.
CHECKS: dict[str, Check] = {
    "L2.1": Check("commutator word on disjoint halves equals the bracket of the half verbal subgroups",
                  _check_disjoint, "ocw", lambda n: _LEMMA_WORDS),
    "L2.2": Check("substituted word has w*(G) = w(u1(G),...,ur(G))",
                  _check_substitution, "ocw", lambda n: _LEMMA_WORDS),
    "L2.3": Check("normal generating subsets generate the same verbal subgroup as the full subgroups",
                  _check_generators, "ocw", lambda n: _LEMMA_WORDS),
    "L2.5": Check("value with one entry in a normal subset lies in its 2^(r-1) star power",
                  _check_star_membership, "ocw", lambda n: _LEMMA_WORDS),
    "L2.6": Check("value with entries in m_i-star powers lies in the m1...mr star power of the value set",
                  _check_width, "ocw", lambda n: _LEMMA_WORDS),
    "L2.8": Check("commutator congruence [x,n] = [y,n][z,n] modulo [K,N,K][L,N]",
                  _check_comm_congruence, "-", lambda n: ("-",)),
    "T2.10": Check("lower central linear series: containments, generation, linearity",
                   partial(_check_series, "gamma"), "gamma",
                   lambda n: ("gamma:1", "gamma:2", "gamma:3") + (("gamma:4",) if n <= 16 else ())),
    "T2.11-bound": Check("lower central factor generating sets within m^(2^(r-1))",
                         partial(_check_bound, "gamma"), "gamma", lambda n: _GAMMA_WORDS),
    "C2.12": Check("value set over normal subgroups generates exactly the verbal subgroup (gamma)",
                   _check_concise_on_normal, "ocw", lambda n: _GAMMA_WORDS),
    "C2.13": Check("power words: gamma of powers equals the composed verbal subgroup",
                   _check_power_words, "ocw", lambda n: _GAMMA_WORDS),
    "L3.2": Check("extended-word values stay within the widened star power",
                  _check_extended_width, "ocw", lambda n: ("gamma:2", "delta:2")),
    "T3.6": Check("derived linear series: containments, generation, degree bounds, linearity",
                  partial(_check_series, "delta"), "delta", _delta_words, _series_tuples),
    "T3.7-bound": Check("derived factor generating sets within m^(h^(2^k) 2^(k-1))",
                        partial(_check_bound, "delta"), "delta", _delta_words, _series_tuples),
    "C3.8": Check("value set over normal subgroups generates exactly the verbal subgroup (delta)",
                  _check_concise_on_normal, "ocw", lambda n: _delta_words(n)[-1:]),
    "C3.9": Check("power words: delta of powers equals the composed verbal subgroup",
                  _check_power_words, "ocw", lambda n: _delta_words(n)[-1:]),
    "CONJ": Check("arbitrary outer commutator: value set closure versus verbal subgroup",
                  _check_probe, "ocw", lambda n: PROBE_WORDS),
}

CHECK_ID_SET = tuple(CHECKS)


def _check_row(check_id: str) -> Check:
    if check_id not in CHECKS:
        raise UnknownCheckId(f"unknown check id {clip(check_id)!r}")
    return CHECKS[check_id]


def _admit(spec: CheckSpec, kind: str, G: FiniteGroup) -> tuple[WordExpr | None, ParsedTuple]:
    """The word and tuple of `spec`, held to the word `kind` of its row (see
    `Check`) on as many entries as the word has variables, or three for `-`;
    any other word or arity is an input error that names the id."""
    if (spec.word == "-") != (kind == "-"):
        why = "needs a word, not '-'" if spec.word == "-" else f"takes no word, only '-', not {spec.word}"
        raise PreconditionFailed(f"{spec.check_id} {why}")
    word = None if kind == "-" else resolve_word(spec.word)[0]
    tup = parse_tuple_spec(spec.tuple_spec, G)
    arity = 3 if word is None else len(variables(word))
    if len(tup.subgroups) != arity:
        raise ArityMismatch(
            f"{spec.check_id} with word {spec.word} needs {arity} tuple entries, got {len(tup.subgroups)}"
        )
    if kind == "ocw":
        word = _require_ocw(word, spec.check_id)
    elif kind != "-" and word != (gamma if kind == "gamma" else delta)(series_parameter(kind, arity)):
        shape = "gamma:r on r" if kind == "gamma" else "delta:k on 2^k"
        raise PreconditionFailed(f"{spec.check_id} takes only {shape} tuple entries, not {spec.word}")
    return word, tup


def run_check(
    spec: CheckSpec,
    G: FiniteGroup | None = None,
    budget: int | None = None,
    cap: int = DEFAULT_ORDER_CAP,
) -> CheckResult:
    """Hold `spec`'s word to its row and run the row's check; a budget
    overrun is a `skip-budget` row, other errors propagate."""
    row = _check_row(spec.check_id)
    group = G if G is not None else resolve_group(spec.group, cap)
    tree, tup = _admit(spec, row.kind, group)
    try:
        status, detail = row.run(group, tree, tup, budget)
    except BudgetExceeded as exc:
        status, detail = "skip-budget", str(exc)
    return _result(spec, status, detail)


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


def _require_seed(seed: int) -> None:
    """The seed picks the ncl(...) entries through numpy's generator, which
    takes no negative seed."""
    if seed < 0:
        raise VerbaError(f"seed must be at least 0, got {seed}")


def build_suite_specs(
    catalog: Sequence[str],
    ids: Sequence[str],
    seed: int = 0,
    cap: int = DEFAULT_ORDER_CAP,
) -> tuple[list[CheckSpec], dict[str, FiniteGroup]]:
    for check_id in ids:
        _check_row(check_id)
    _require_seed(seed)
    groups: dict[str, FiniteGroup] = {}
    specs: list[CheckSpec] = []
    for gspec in catalog:
        if gspec not in groups:
            groups[gspec] = resolve_group(gspec, cap)
        G = groups[gspec]
        # one call per (tuples function, arity) on G, shared by every row using it
        tuples = cache(lambda specs_of, arity: specs_of(G, arity, seed))
        for check_id, row in CHECKS.items():
            if check_id not in ids:
                continue
            for wspec in row.words(G.order):
                for tspec in tuples(row.tuples, word_arity(wspec)):
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
    if probe:
        _probe_word(tree)
    rows: list[SurveyRow] = []
    for gspec in catalog:
        G = resolve_group(gspec, cap)
        for tspec in default_tuple_specs(G, len(variables(tree)), seed):
            tup = parse_tuple_spec(tspec, G)
            try:
                vs, sub, ok = _gap(G, tree, tup, budget)
                if probe and not ok:
                    raise InternalInvariantViolation(
                        f"{gspec} {tspec}: value-set closure differs from verbal subgroup"
                    )
                m, verbal_order, mode = vs.size, sub.order, "exhaustive"
            except BudgetExceeded:
                m, verbal_order, mode = 0, 0, "skipped"
            rows.append(SurveyRow(gspec, G.order, label, tspec, m, verbal_order, mode, seed))
    rows.sort(key=lambda r: (r.m, r.order, r.group, r.tuple_spec))
    return rows
