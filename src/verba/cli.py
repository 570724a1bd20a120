"""Command-line surface: parsing, evaluation, series, suites, surveys.

Exit codes: 0 all pass, 1 verification failure, 2 usage or input error,
3 enumeration budget exceeded.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from typing import Sequence

from .enumeration import DEFAULT_BUDGET
from .errors import (
    BadIndex,
    BudgetExceeded,
    InternalInvariantViolation,
    VerbaError,
    as_int,
)
from .groups import DEFAULT_ORDER_CAP, evaluate
from .harness import (
    CHECK_ID_SET,
    CheckSpec,
    DEFAULT_CATALOG,
    parse_tuple_spec,
    resolve_group,
    resolve_word,
    run_check,
    run_suite,
    series_variables,
    survey,
    word_arity,
)
from .series import build_series, series_parameter, verify_series
from .verbal import value_set, verbal_subgroup
from .words import (
    MAX_WORD_DEPTH,
    classify_outer_commutator,
    exponent_sum,
    is_non_commutator,
    parse_word,
    reduce_word,
    render,
    variables,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

SURVEY_HEADER = ["group", "order", "word", "tuple", "m", "verbal_order", "mode", "seed"]
SUITE_HEADER = ["check", "group", "word", "tuple", "mode", "status", "detail"]


def _add_arguments(p: argparse.ArgumentParser, name: str) -> None:
    """Add subcommand `name`'s arguments to `p`."""
    def common(p, group=True, word=True, tup=True, seed=False, fmt=True):
        if group:
            p.add_argument("--group", required=True, help="builtin spec (e.g. sym:4) or group file path")
        if word:
            p.add_argument("--word", required=True, help="word text, gamma:r, or delta:k")
        if tup:
            p.add_argument("--tuple", dest="tuple_spec", help="tuple spec, e.g. G,derived,ncl(3)")
        if seed:
            p.add_argument("--seed", type=int, default=0, help="picks the ncl(...) tuple entries (default 0)")
        p.add_argument("--budget", type=int, default=None, help="enumeration budget (default 10^8 or VERBA_BUDGET)")
        if fmt:
            p.add_argument("--format", dest="fmt", choices=["table", "csv", "jsonl"], default="table")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--cap", type=int, default=DEFAULT_ORDER_CAP, help="group order cap")

    if name == "parse":
        p.add_argument("word")
    elif name == "eval":
        common(p, tup=False, fmt=False)
        p.add_argument("--assign", required=True, help="comma list var=element-index, e.g. x1=2,x2=5")
    elif name in ("values", "verbal"):
        common(p)
    elif name == "series":
        p.add_argument("kind", choices=["gamma", "delta"])
        common(p, word=False)
        p.add_argument("--r", type=int, default=None, help="gamma length (default: tuple arity)")
        p.add_argument("--k", type=int, default=None, help="delta depth (default: log2 of tuple arity)")
    elif name == "check":
        p.add_argument("check_id", choices=list(CHECK_ID_SET))
        common(p)
    elif name == "suite":
        common(p, group=False, word=False, tup=False, seed=True)
        p.add_argument("--catalog", default=None, help="file with one group spec per line (default: builtin catalog)")
        p.add_argument("--ids", default=None, help="comma list of check ids (default: all)")
    else:  # survey, probe
        common(p, group=False, tup=False, seed=True)
        p.add_argument("--catalog", default=None)


def _build_parser() -> argparse.ArgumentParser:
    """The full tree, whose usage line, help and errors are the top-level ones."""
    top = argparse.ArgumentParser(
        prog="verba",
        description="Word values and verbal subgroups on normal subgroups of finite groups.",
    )
    sub = top.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        _add_arguments(sub.add_parser(name, help=help_text), name)
    return top


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """Parse `argv` with the named subcommand's parser alone, as `add_parser`
    builds it; the full tree, whose usage line heads the top-level errors, is
    built only when no subcommand comes first or arguments are left over."""
    if argv and argv[0] in _COMMANDS:
        p = argparse.ArgumentParser(prog=f"verba {argv[0]}")
        _add_arguments(p, argv[0])
        args, extra = p.parse_known_args(argv[1:])
        if not extra:
            args.command = argv[0]
            return args
    return _build_parser().parse_args(argv)


def _read_catalog(path: str | None) -> list[str]:
    if path is None:
        return list(DEFAULT_CATALOG)
    with open(path, "r", encoding="utf-8") as fh:
        return [ln.strip() for ln in fh if ln.strip() and not ln.strip().startswith("#")]


def _budget(args) -> int:
    if getattr(args, "budget", None) is not None:
        return args.budget
    env = os.environ.get("VERBA_BUDGET")
    if not env:
        return DEFAULT_BUDGET
    return as_int(env, VerbaError(f"VERBA_BUDGET {env!r} is not a number"))


def _emit(lines: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(lines)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(lines)


def _format_rows(rows: list[dict], header: list[str], fmt: str) -> str:
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([row[h] for h in header])
        return buf.getvalue()
    if fmt == "jsonl":
        return "".join(json.dumps(row, sort_keys=True) + "\n" for row in rows)
    widths = {h: max(len(h), *(len(str(r[h])) for r in rows)) if rows else len(h) for h in header}
    out = ["  ".join(h.ljust(widths[h]) for h in header)]
    for row in rows:
        out.append("  ".join(str(row[h]).ljust(widths[h]) for h in header))
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_parse(args) -> int:
    expr = parse_word(args.word)
    tree = classify_outer_commutator(expr)
    non_comm, witness, esum = is_non_commutator(expr)
    lines = [f"canonical: {render(expr)}"]
    lines.append(f"outer-commutator: {'yes' if tree is not None else 'no'}")
    if non_comm:
        lines.append(f"non-commutator: yes ({witness} has exponent sum {esum})")
    else:
        lines.append("non-commutator: no")
    sums = ", ".join(f"{v}:{exponent_sum(expr, v)}" for v in variables(expr))
    lines.append(f"exponent sums: {sums}")
    lines.append(f"reduced: {reduce_word(expr)}")
    _emit("\n".join(lines) + "\n", None)
    return EXIT_OK


def _cmd_eval(args) -> int:
    G = resolve_group(args.group, args.cap)
    expr = resolve_word(args.word)[0]
    assignment = {}
    for part in args.assign.split(","):
        name, _, idx = part.strip().partition("=")
        var = parse_word(name)
        if var not in variables(expr):
            raise VerbaError(f"{name.strip()!r} is not a variable of the word {render(expr)}")
        if var in assignment:
            raise VerbaError(f"variable {var} is assigned more than once")
        index = as_int(idx, BadIndex(f"element index {idx.strip()!r} is not a number"))
        assignment[var] = G.check_index(index)
    val = evaluate(expr, G, assignment)
    _emit(f"{val} ({G.element_name(val)})\n", args.out)
    return EXIT_OK


def _resolved(args):
    G = resolve_group(args.group, args.cap)
    word, label = resolve_word(args.word)
    spec = args.tuple_spec
    tup = parse_tuple_spec(",".join(["G"] * len(variables(word))) if spec is None else spec, G)
    return G, word, label, tup


def _cmd_values(args) -> int:
    G, word, label, tup = _resolved(args)
    vs = value_set(word, tup.subgroups, args.budget)
    names = [G.element_name(int(v)) for v in vs.values]
    rows = [{"word": label, "tuple": ",".join(tup.labels), "m": vs.size,
             "values": " ".join(names)}]
    _emit(_format_rows(rows, ["word", "tuple", "m", "values"], args.fmt), args.out)
    return EXIT_OK


def _cmd_verbal(args) -> int:
    G, word, label, tup = _resolved(args)
    sub = verbal_subgroup(word, tup.generators, args.budget)
    gens = [G.element_name(int(g)) for g in sub.generators[:12]]
    rows = [{"word": label, "tuple": ",".join(tup.labels), "order": sub.order,
             "generators": " ".join(gens) + (" ..." if len(sub.generators) > 12 else "")}]
    _emit(_format_rows(rows, ["word", "tuple", "order", "generators"], args.fmt), args.out)
    return EXIT_OK


def _cmd_series(args) -> int:
    """gamma takes r = --r, delta k = --k, and the other kind's flag is a
    usage error; r or k defaults to what --tuple fits (2 entries without
    it), and the tuple defaults to G in each entry."""
    if args.kind == "gamma" and args.k is not None:
        raise VerbaError("--k is the delta depth; series gamma takes --r")
    if args.kind == "delta" and args.r is not None:
        raise VerbaError("--r applies to series gamma; series delta takes --k")
    G = resolve_group(args.group, args.cap)
    budget = args.budget
    n = args.r if args.kind == "gamma" else args.k
    subgroups = None if args.tuple_spec is None else parse_tuple_spec(args.tuple_spec, G).subgroups
    if n is None:
        n = series_parameter(args.kind, 2 if subgroups is None else len(subgroups))
    arity = series_variables(args.kind, n)
    if arity is None:
        raise VerbaError(f"{args.kind}:{n} needs 1 to {MAX_WORD_DEPTH + 1} variables")
    if subgroups is None:
        subgroups = [G.full_subgroup()] * arity
    elif len(subgroups) != arity:
        raise VerbaError(f"{args.kind}:{n} needs {arity} tuple entries, --tuple has {len(subgroups)}")
    series = build_series(args.kind, subgroups, budget)
    report = verify_series(series, budget=budget)
    lines = [
        f"{args.kind} series on {G.label}, parameter {series.parameter}: "
        f"{len(series.factors)} factors"
    ]
    lines.append("terms (ascending): " + " <= ".join(str(t.order) for t in series.terms))
    rows = []
    for f, fr in zip(series.factors, report.factors):
        rows.append(
            {
                "factor": f.index,
                "provenance": f.provenance,
                "word": render(f.word),
                "entries": ",".join(str(e.subgroup.order) for e in f.entries),
                "linear@": f.linear_position,
                "degree": f.degree,
                "section": f"{f.upper.order}/{f.lower.order}",
                "checks": "ok" if fr.ok else "FAIL",
                "linearity": fr.linearity.verdict,
            }
        )
    body = _format_rows(
        rows,
        ["factor", "provenance", "word", "entries", "linear@", "degree", "section", "checks", "linearity"],
        args.fmt,
    )
    _emit("\n".join(lines) + "\n" + body, args.out)
    return EXIT_OK if report.all_ok else EXIT_FAIL


def _cmd_check(args) -> int:
    tuple_spec = ",".join(["G"] * word_arity(args.word)) if args.tuple_spec is None else args.tuple_spec
    spec = CheckSpec(args.check_id, args.group, args.word, tuple_spec)
    res = run_check(spec, budget=args.budget, cap=args.cap)
    _emit(_format_rows([res.as_dict()], SUITE_HEADER, args.fmt), args.out)
    if res.status == "fail":
        return EXIT_FAIL
    if res.status == "skip-budget":
        return EXIT_BUDGET
    return EXIT_OK


def _cmd_suite(args) -> int:
    catalog = _read_catalog(args.catalog)
    ids = args.ids.split(",") if args.ids is not None else None
    report = run_suite(catalog, ids=ids, seed=args.seed, budget=args.budget, cap=args.cap)
    rows = [r.as_dict() for r in report.rows]
    body = _format_rows(rows, SUITE_HEADER, args.fmt)
    _emit(body + report.summary() + "\n", args.out)
    if report.failures:
        return EXIT_FAIL
    if report.skipped:
        return EXIT_BUDGET
    return EXIT_OK


def _cmd_survey(args) -> int:
    """`survey` and `probe`: the probe also cross-checks every row."""
    rows = survey(
        _read_catalog(args.catalog),
        args.word,
        seed=args.seed,
        budget=args.budget,
        cap=args.cap,
        probe=args.command == "probe",
    )
    _emit(_format_rows([r.as_dict() for r in rows], SURVEY_HEADER, args.fmt), args.out)
    return EXIT_OK if all(r.mode != "skipped" for r in rows) else EXIT_BUDGET


# name: (handler, help line)
_COMMANDS = {
    "parse": (_cmd_parse, "echo canonical form and classification of a word"),
    "eval": (_cmd_eval, "evaluate a word at an assignment"),
    "values": (_cmd_values, "value set of a word over a tuple"),
    "verbal": (_cmd_verbal, "verbal subgroup order and generators"),
    "series": (_cmd_series, "build and verify a linear series"),
    "check": (_cmd_check, "run a single named check"),
    "suite": (_cmd_suite, "run checks over a group catalog"),
    "survey": (_cmd_survey, "value-set size versus verbal subgroup order"),
    "probe": (_cmd_survey, "survey for arbitrary outer commutator words"),
}


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        args.budget = _budget(args)
        if args.budget < 1:
            raise VerbaError("budget must be at least 1")
        if getattr(args, "cap", 1) < 1:
            raise VerbaError("cap must be at least 1")
        return _COMMANDS[args.command][0](args)
    except BudgetExceeded as exc:
        sys.stderr.write(f"budget exceeded: {exc}\n")
        return EXIT_BUDGET
    except InternalInvariantViolation as exc:
        sys.stderr.write(f"internal invariant violated: {exc}\n")
        return EXIT_FAIL
    except VerbaError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except OSError as exc:
        sys.stderr.write(f"io error: {exc}\n")
        return EXIT_USAGE


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
