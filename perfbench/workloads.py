"""The benchmark's workloads: inputs from a seed, set-up, one item, a gate.

Every workload is a closed loop with a single caller: the next item starts
only when the previous one has returned, all in one process (no pools).  A
workload object provides

* ``prepare(seed)``: everything built before the first timed item (groups,
  check specs, the query stream); the benchmark times it as set-up;
* ``run(state, item)``: one item, which is all that is timed per item;
* ``judge(state, results)``: the correctness gate for a finished pass.  It
  runs after the pass, so judging costs no item time.

verba is imported inside the methods, never at module level, so that
importing it is part of the measured set-up.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import re
from dataclasses import dataclass, field
from pathlib import Path

DEFAULT_SEED = 0
EXPECTED_DIR = Path(__file__).resolve().parent / "expected"

# Statuses and exit codes that count as a verdict; skip-budget and exit 3 do not.
DECIDED_STATUSES = ("pass", "fail")
DECIDED_EXITS = (0, 1, 2)


@dataclass
class Outcome:
    """How one item ended, as the gate sees it."""

    decided: bool
    error: str | None = None  # why the item is wrong; None when it is right
    known_defect: str | None = None  # set when `error` is a documented defect


@dataclass
class State:
    """What `prepare` built: the items of one pass plus what they run on."""

    seed: int
    items: list
    groups: dict = field(default_factory=dict)


@dataclass
class Raised:
    """An exception that escaped the program during an item."""

    name: str
    message: str


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_expected(name: str) -> dict | None:
    path = EXPECTED_DIR / f"{name}_seed{DEFAULT_SEED}.json"
    if not path.exists():
        return None
    return json.loads(path.read_text(encoding="utf-8"))


def _run_check(spec, group):
    """One `run_check`, with `run_suite`'s wrapping of VerbaError into `fail`."""
    from verba import harness
    from verba.errors import VerbaError

    try:
        return harness.run_check(spec, G=group)
    except VerbaError as exc:
        return harness.CheckResult(
            check_id=spec.check_id,
            group=spec.group,
            word=spec.word,
            tuple_spec=spec.tuple_spec,
            mode=spec.mode,
            status="fail",
            detail=f"{type(exc).__name__}: {exc}",
        )


def _csv_line(row) -> str:
    import csv

    from verba.cli import SUITE_HEADER

    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([row.as_dict()[h] for h in SUITE_HEADER])
    return buf.getvalue()


def suite_csv(rows, seed: int) -> str:
    """The exact text `verba suite --format csv --seed <seed>` prints for `rows`."""
    from verba.cli import SUITE_HEADER
    from verba.harness import SuiteReport

    header = ",".join(SUITE_HEADER) + "\n"
    body = "".join(_csv_line(r) for r in rows)
    return header + body + SuiteReport(rows=list(rows), seed=seed).summary() + "\n"


# ---------------------------------------------------------------------------
# suite: the rows of run_suite(DEFAULT_CATALOG, seed=...), one check per item
# ---------------------------------------------------------------------------


class Suite:
    """All 16 check ids over the default catalog, as `verba suite` runs them."""

    name = "suite"

    def prepare(self, seed: int) -> State:
        from verba.harness import CHECK_ID_SET, DEFAULT_CATALOG, build_suite_specs

        specs, groups = build_suite_specs(DEFAULT_CATALOG, list(CHECK_ID_SET), seed=seed)
        return State(seed=seed, items=specs, groups=groups)

    def run(self, state: State, spec):
        return _run_check(spec, state.groups[spec.group])

    def judge(self, state: State, results: list) -> tuple[list[Outcome], list[str]]:
        # Every statement checked is a theorem, so any `fail` is an error.
        outcomes = []
        for spec, res in zip(state.items, results):
            if isinstance(res, Raised):
                outcomes.append(Outcome(False, f"{spec}: raised {res.name}: {res.message}"))
            elif res.status == "fail":
                outcomes.append(Outcome(True, f"{spec}: fail: {res.detail}"))
            else:
                outcomes.append(Outcome(res.status in DECIDED_STATUSES))
        problems: list[str] = []
        expected = load_expected(self.name) if state.seed == DEFAULT_SEED else None
        if expected is not None:
            problems += self._compare_rows(state, results, outcomes, expected)
        return outcomes, problems

    def _compare_rows(self, state, results, outcomes, expected) -> list[str]:
        """Per-row and whole-output comparison with the recorded CSV digests."""
        rows_expected = expected["rows"]
        if len(rows_expected) != len(results):
            return [f"suite has {len(results)} rows, recorded {len(rows_expected)}"]
        for i, (res, want) in enumerate(zip(results, rows_expected)):
            if isinstance(res, Raised):
                continue
            if _digest(_csv_line(res))[:16] != want and outcomes[i].error is None:
                outcomes[i].error = f"row {i} ({state.items[i]}) differs from the recorded CSV row"
        if any(isinstance(r, Raised) for r in results):
            return []
        got = _digest(suite_csv(results, state.seed))
        if got != expected["sha256"]:
            return [f"suite CSV sha256 {got} differs from the recorded {expected['sha256']}"]
        return []

    def record(self, state: State, results: list) -> dict:
        return {
            "sha256": _digest(suite_csv(results, state.seed)),
            "rows": [_digest(_csv_line(r))[:16] for r in results],
        }


# ---------------------------------------------------------------------------
# frontier: a fixed list of large instances
# ---------------------------------------------------------------------------

# (check id, group, word, verdict at the commit that defined the benchmark).
# The statements are theorems, so `pass` is the only correct verdict; an
# instance recorded as skip-budget may become `pass` (that is more decided,
# not wrong), but any other change of verdict is an error.
FRONTIER: tuple[tuple[str, str, str, str], ...] = (
    ("T2.10", "alt:5", "gamma:2", "pass"),
    ("T2.10", "alt:5", "gamma:3", "pass"),
    ("T3.6", "alt:5", "delta:1", "pass"),
    ("T3.6", "alt:5", "delta:2", "skip-budget"),
    ("T2.10", "sym:5", "gamma:2", "pass"),
    ("T2.10", "sym:5", "gamma:3", "skip-budget"),
    ("T3.6", "sym:5", "delta:1", "pass"),
    ("T3.6", "sym:5", "delta:2", "skip-budget"),
    ("C2.12", "sym:7", "gamma:2", "pass"),
)


def word_arity(word: str) -> int:
    kind, n = word.split(":")
    return int(n) if kind == "gamma" else 2 ** int(n)


class Frontier:
    """The ROADMAP's scale frontier: linearity enumeration on alt:5, sym:5, sym:7."""

    name = "frontier"

    def prepare(self, seed: int) -> State:
        # The instance list is fixed by design; the seed does not change it.
        from verba.harness import CheckSpec, resolve_group

        groups = {g: resolve_group(g) for g in dict.fromkeys(g for _, g, _, _ in FRONTIER)}
        specs = [
            CheckSpec(check_id=c, group=g, word=w, tuple_spec=",".join(["G"] * word_arity(w)))
            for c, g, w, _ in FRONTIER
        ]
        return State(seed=seed, items=specs, groups=groups)

    def run(self, state: State, spec):
        return _run_check(spec, state.groups[spec.group])

    def judge(self, state: State, results: list) -> tuple[list[Outcome], list[str]]:
        outcomes = []
        for (_, _, _, want), spec, res in zip(FRONTIER, state.items, results):
            if isinstance(res, Raised):
                outcomes.append(Outcome(False, f"{spec}: raised {res.name}: {res.message}"))
                continue
            decided = res.status in DECIDED_STATUSES
            allowed = {want, "pass"} if want == "skip-budget" else {want}
            if res.status not in allowed:
                outcomes.append(Outcome(decided, f"{spec}: {res.status}, expected {want}: {res.detail}"))
            else:
                outcomes.append(Outcome(decided))
        return outcomes, []


# ---------------------------------------------------------------------------
# queries: one-shot CLI calls, cold caches, a small malformed share
# ---------------------------------------------------------------------------

# The default catalog, written out so that the queries do not change when the
# catalog does, plus the larger groups named for this workload.
SMALL_GROUPS: tuple[str, ...] = tuple(
    [f"cyc:{n}" for n in range(1, 13)]
    + [f"dih:{n}" for n in range(2, 9)]
    + ["sym:3", "sym:4", "alt:4", "quat:8", "heis:3", "cyc:2 x sym:3", "cyc:3 x quat:8"]
)
LARGE_GROUPS: tuple[str, ...] = ("sym:5", "alt:5", "alt:6", "sym:6", "heis:5", "heis:7", "dih:60")

VALUE_WORDS = ("gamma:2", "gamma:3", "delta:2", "[x1^2,x2]", "x1^3", "x1*x2*x1^-1*x2^-1")
TUPLE_VARIANTS = (None, "G,derived", "derived,derived", "G,center")  # for 2-variable words
EVAL_WORDS = ("gamma:2", "gamma:3", "delta:2", "[x1^2,x2]", "x1*x2^-1")
QUERY_CHECK_IDS = ("L2.1", "L2.3", "L2.5", "L2.6", "C2.12")
CHECK_WORDS = {"C2.12": ("gamma:2", "gamma:3")}
CHECK_GROUPS = SMALL_GROUPS + ("alt:5",)
SERIES_GROUPS = tuple(g for g in SMALL_GROUPS if not g.startswith("cyc:"))
FORMATS = ("table", "csv", "jsonl")

# No usage data exists for the CLI, so the mix is not measured: every
# subcommand gets the same number of queries a pass, and every malformed kind
# (expected exit 2) the same small number.
QUERY_KINDS = ("values", "verbal", "eval", "parse", "check", "series")
QUERIES_EACH = 50
MALFORMED_EACH = 3
MALFORMED_KINDS = (
    "unknown-group",
    "unparsable-word",
    "assign-not-numeric",
    "index-out-of-range",
    "series-r-not-positive",
)
BAD_GROUPS = ("foo:3", "sym", "quat:7", "cyc:0", "sym:x", "heis:4")
BAD_WORDS = ("[x1,", "x1^", "[x1]", "x1**x2", "z1", "x0", "[x1,x2")
NOT_NUMBERS = ("zz", "a1", "1.5", "")
# Only r = 0 hits the series defect below, so each pass takes these values in
# turn rather than drawing them: the number of known-defect items in a pass
# is then part of the fixed composition, not of the seed.
NON_POSITIVE_R = (0, -1, -2)

# Malformed queries that hit a documented defect (ROADMAP item 4), with the
# wrong behaviour they show.  They stay in the stream and count as errors; a
# documented defect does not make the run incorrect, any other error does.
KNOWN_DEFECTS = {
    "assign-not-numeric": (
        "raises:ValueError",
        "ROADMAP item 4: eval --assign with a non-numeric index raises ValueError out of main",
    ),
    "series-r-not-positive": (
        "exit:0",
        "ROADMAP item 4: series gamma --r 0 silently runs r=2 and exits 0",
    ),
}

# Composition is fixed; the workload seed shuffles the order and draws the
# details that change neither an item's cost class nor its outcome (element
# indices, formats, parse texts, malformed inputs).  So the spread between
# seeds measures the program, not the draw, and every seed has the same
# number of known-defect items.
_COMPOSITION_SEED = 20230413


@dataclass(frozen=True)
class Query:
    argv: tuple[str, ...]
    kind: str
    expect: int  # expected exit code

    @property
    def malformed(self) -> bool:
        return self.kind not in QUERY_KINDS


def group_order(spec: str) -> int:
    """Order of a builtin group spec, without building the group."""
    order = 1
    for part in re.split(r"\s+x\s+", spec):
        kind, n = part.split(":")
        n = int(n)
        order *= {
            "cyc": n,
            "dih": 2 * n,
            "sym": math.factorial(n),
            "alt": max(1, math.factorial(n) // 2),
            "quat": 8,
            "heis": n**3,
        }[kind]
    return order


def _word_vars(word: str) -> list[str]:
    if word.startswith(("gamma:", "delta:")):
        return [f"x{i}" for i in range(1, word_arity(word) + 1)]
    return sorted(set(re.findall(r"[xy]\d+", word)), key=lambda v: (v[0], int(v[1:])))


def _random_word(rng: random.Random, depth: int = 0) -> str:
    roll = rng.random()
    if depth >= 3 or roll < 0.3:
        atom = f"{rng.choice('xy')}{rng.randint(1, 4)}"
        return atom + (f"^{rng.choice((-2, -1, 2, 3))}" if rng.random() < 0.3 else "")
    if roll < 0.7:
        entries = [_random_word(rng, depth + 1) for _ in range(rng.randint(2, 3))]
        out = "[" + ",".join(entries) + "]"
        return out + ("^-1" if rng.random() < 0.2 else "")
    factors = [_random_word(rng, depth + 1) for _ in range(rng.randint(2, 3))]
    return "(" + "*".join(factors) + ")"


def _templates() -> list[tuple]:
    """The fixed, seed-independent composition of one pass."""
    rng = random.Random(_COMPOSITION_SEED)
    pool = SMALL_GROUPS + LARGE_GROUPS
    out: list[tuple] = []
    for kind in ("values", "verbal"):
        for i in range(QUERIES_EACH):
            word = VALUE_WORDS[i % len(VALUE_WORDS)]
            tup = rng.choice(TUPLE_VARIANTS) if len(_word_vars(word)) == 2 else None
            out.append((kind, rng.choice(pool), word, tup))
    for i in range(QUERIES_EACH):
        out.append(("eval", rng.choice(pool), EVAL_WORDS[i % len(EVAL_WORDS)], None))
    out += [("parse", None, None, None)] * QUERIES_EACH
    for i in range(QUERIES_EACH):
        check_id = QUERY_CHECK_IDS[i % len(QUERY_CHECK_IDS)]
        words = CHECK_WORDS.get(check_id, ("gamma:2", "gamma:3", "delta:2"))
        out.append(("check", rng.choice(CHECK_GROUPS), rng.choice(words), check_id))
    for i in range(QUERIES_EACH):
        kind_args = (("gamma", "--r", "2"), ("gamma", "--r", "3"), ("delta", "--k", "1"))[i % 3]
        out.append(("series", rng.choice(SERIES_GROUPS), kind_args, None))
    for kind in MALFORMED_KINDS:
        out += [(kind, None, None, i) for i in range(MALFORMED_EACH)]
    return out


def _query(template: tuple, rng: random.Random) -> Query:
    kind, group, word, extra = template
    fmt = ["--format", rng.choice(FORMATS)]
    if kind in ("values", "verbal"):
        tup = ["--tuple", extra] if extra else []
        return Query((kind, "--group", group, "--word", word, *tup, *fmt), kind, 0)
    if kind == "eval":
        order = group_order(group)
        assign = ",".join(f"{v}={rng.randrange(order)}" for v in _word_vars(word))
        return Query(("eval", "--group", group, "--word", word, "--assign", assign), kind, 0)
    if kind == "parse":
        return Query(("parse", _random_word(rng)), kind, 0)
    if kind == "check":
        return Query(("check", extra, "--group", group, "--word", word, *fmt), kind, 0)
    if kind == "series":
        return Query(("series", word[0], "--group", group, *word[1:], *fmt), kind, 0)
    small = rng.choice(SMALL_GROUPS)
    if kind == "unknown-group":
        return Query(("values", "--group", rng.choice(BAD_GROUPS), "--word", "gamma:2"), kind, 2)
    if kind == "unparsable-word":
        return Query(("values", "--group", small, "--word", rng.choice(BAD_WORDS)), kind, 2)
    if kind == "assign-not-numeric":
        assign = f"x1={rng.choice(NOT_NUMBERS)},x2=0"
        return Query(("eval", "--group", small, "--word", "gamma:2", "--assign", assign), kind, 2)
    if kind == "index-out-of-range":
        bad = rng.choice((group_order(small) + rng.randrange(4), -1 - rng.randrange(3)))
        assign = f"x1={bad},x2=0"
        return Query(("eval", "--group", small, "--word", "gamma:2", "--assign", assign), kind, 2)
    if kind == "series-r-not-positive":
        r = str(NON_POSITIVE_R[extra % len(NON_POSITIVE_R)])
        return Query(("series", "gamma", "--group", small, "--r", r), kind, 2)
    raise ValueError(f"unknown query kind {kind!r}")


def generate_queries(seed: int) -> list[Query]:
    """One pass of the query stream; the same seed gives the same queries."""
    rng = random.Random(seed)
    templates = _templates()
    rng.shuffle(templates)
    return [_query(t, rng) for t in templates]


@dataclass
class CliResult:
    code: int | None
    stdout: str
    stderr: str
    raised: Raised | None = None


class Queries:
    """Seeded one-shot `verba.cli.main(argv)` calls in-process, output captured."""

    name = "queries"

    def prepare(self, seed: int) -> State:
        import verba.cli  # noqa: F401  (part of the measured set-up)

        return State(seed=seed, items=generate_queries(seed))

    def run(self, state: State, query: Query) -> CliResult:
        import verba.cli

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = verba.cli.main(list(query.argv))
            except Exception as exc:  # an escaped exception is judged, not fatal
                return CliResult(None, out.getvalue(), err.getvalue(), Raised(type(exc).__name__, str(exc)))
        return CliResult(code, out.getvalue(), err.getvalue())

    def judge(self, state: State, results: list) -> tuple[list[Outcome], list[str]]:
        outcomes = [self._judge_one(q, r) for q, r in zip(state.items, results)]
        expected = load_expected(self.name) if state.seed == DEFAULT_SEED else None
        if expected is None:
            return outcomes, []
        digests = self._digests(state, results)
        if len(digests) != len(expected["outputs"]):
            return outcomes, [f"{len(digests)} queries, recorded {len(expected['outputs'])}"]
        for (i, got), want in zip(digests, expected["outputs"]):
            if got != want and outcomes[i].error is None:
                outcomes[i].error = f"{' '.join(state.items[i].argv)}: output differs from the recording"
        return outcomes, []

    @staticmethod
    def _judge_one(query: Query, res: CliResult) -> Outcome:
        if isinstance(res, Raised):  # raised outside main, in the benchmark's own call
            return Outcome(False, f"{query.argv}: raised {res.name}: {res.message}")
        seen = f"raises:{res.raised.name}" if res.raised else f"exit:{res.code}"
        decided = res.code in DECIDED_EXITS
        if res.raised is None and res.code == query.expect:
            return Outcome(decided)
        error = f"{' '.join(query.argv)}: {seen}, expected exit:{query.expect}"
        defect = KNOWN_DEFECTS.get(query.kind)
        if defect is not None and defect[0] == seen:
            return Outcome(decided, error, known_defect=defect[1])
        return Outcome(decided, error)

    @staticmethod
    def _digests(state: State, results: list) -> list[tuple[int, str]]:
        """Digest of exit code and stdout of each well-formed query.

        Malformed queries are judged by exit code only, so fixing how an
        error is reported does not change the recording."""
        out = []
        for i, (q, r) in enumerate(zip(state.items, results)):
            if q.malformed or isinstance(r, Raised):
                continue
            text = "\0".join(q.argv) + f"\0{r.code}\0{r.stdout}"
            out.append((i, _digest(text)[:16]))
        return out

    def record(self, state: State, results: list) -> dict:
        return {"outputs": [d for _, d in self._digests(state, results)]}


WORKLOADS = {w.name: w for w in (Suite(), Frontier(), Queries())}
