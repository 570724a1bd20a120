"""Group-word ASTs: parsing, free reduction, commutator word builders.

Words live in the free group on two disjoint variable families, ``x1, x2, ...``
and ``y1, y2, ...``.  The y-family is reserved for variables introduced when
words are extended by fresh outer commutators.

Conventions fixed here and used everywhere else:

* commutators expand as ``[a,b] = a^-1 b^-1 a b``;
* left-normed sugar ``[a,b,c] = [[a,b],c]``;
* ``w^0`` is the empty word, negative powers are repeated inverses.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterator, Mapping, Union

from .errors import (
    ArityMismatch,
    BudgetExceeded,
    DisjointnessViolation,
    UnknownVariableFamily,
    WordSyntaxError,
)

X_FAMILY = "x"
Y_FAMILY = "y"
# Deepest nesting `parse_word` accepts, counted both as open brackets and as
# levels of the parsed tree; deeper words would overflow the recursion of the
# parser and of the evaluators.
MAX_WORD_DEPTH = 100
# Most letters `reduce_word` expands a word into before it cancels.  The
# count is worked out from the tree first, so a longer word (x1^1000000000)
# is refused before anything is allocated.
MAX_REDUCED_LETTERS = 10**6


@dataclass(frozen=True, order=True)
class Var:
    family: str
    index: int

    def __post_init__(self):
        if self.family not in (X_FAMILY, Y_FAMILY):
            raise ValueError(f"variable family must be x or y, got {self.family!r}")
        if self.index < 1:
            raise ValueError("variable indices are positive")
        object.__setattr__(self, "_text", f"{self.family}{self.index}")

    _depth = 0
    _ocw = True

    @property
    def _vars(self) -> tuple["Var", ...]:
        return (self,)

    def __str__(self) -> str:
        return self._text


def xvar(i: int) -> Var:
    return Var(X_FAMILY, i)


def yvar(i: int) -> Var:
    return Var(Y_FAMILY, i)


# Every node stores its canonical text, its variables, its depth and whether
# it is an outer commutator when it is built, from its children's stored
# values, so `render`, `variables` and `is_outer_commutator` are attribute
# reads and no word tree is walked twice.  The stored attributes are not
# dataclass fields: equality, hashing and ordering ignore them.


def _store(node, text: str, vars_: tuple[Var, ...], children, ocw: bool = False) -> None:
    object.__setattr__(node, "_text", text)
    object.__setattr__(node, "_vars", vars_)
    object.__setattr__(node, "_depth", 1 + max((c._depth for c in children), default=0))
    object.__setattr__(node, "_ocw", ocw)


def _merged_vars(children) -> tuple[Var, ...]:
    if len(children) == 1:
        return children[0]._vars
    return tuple(sorted(set().union(*(c._vars for c in children))))


def _atomish(w: "WordExpr") -> str:
    if isinstance(w, (Var, Commutator)):
        return w._text
    return f"({w._text})"


@dataclass(frozen=True)
class Power:
    child: "WordExpr"
    exponent: int

    def __post_init__(self):
        _store(self, f"{_atomish(self.child)}^{self.exponent}", self.child._vars, (self.child,))


@dataclass(frozen=True)
class Product:
    factors: tuple["WordExpr", ...]

    def __post_init__(self):
        text = "*".join(_atomish(f) for f in self.factors) or "()"
        _store(self, text, _merged_vars(self.factors), self.factors)


@dataclass(frozen=True)
class Commutator:
    left: "WordExpr"
    right: "WordExpr"

    def __post_init__(self):
        children = (self.left, self.right)
        vars_ = _merged_vars(children)
        # the two sides are disjoint when no variable is counted twice
        ocw = (
            self.left._ocw
            and self.right._ocw
            and len(vars_) == len(self.left._vars) + len(self.right._vars)
        )
        _store(self, f"[{self.left._text},{self.right._text}]", vars_, children, ocw)


WordExpr = Union[Var, Power, Product, Commutator]


def variables(w: WordExpr) -> tuple[Var, ...]:
    """All variables of `w`, x-family first, each family by index.

    This is the one order in which positions meet variables: entry i of a
    tuple, an argument list or a multiplicity vector goes to variables(w)[i].
    """
    return w._vars


def is_outer_commutator(w: WordExpr) -> bool:
    """True for a variable, or a commutator of two outer commutators whose
    variables are disjoint."""
    return w._ocw


# ---------------------------------------------------------------------------
# rendering and parsing
# ---------------------------------------------------------------------------


def render(w: WordExpr) -> str:
    """Canonical text form; reparsing a parser-produced AST is the identity."""
    return w._text


_Token = tuple[str, object, int]  # kind, payload, position


def _lex(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in "*^()[],-":
            tokens.append(("op", c, i))
            i += 1
            continue
        if c.isdecimal():
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            tokens.append(("int", int(text[i:j]), i))
            i = j
            continue
        if c.isalpha():
            if c not in (X_FAMILY, Y_FAMILY):
                raise UnknownVariableFamily(
                    f"unknown variable family {c!r} (expected x or y)", i
                )
            j = i + 1
            while j < n and text[j].isdecimal():
                j += 1
            if j == i + 1:
                raise WordSyntaxError(f"variable {c!r} needs an index", i)
            idx = int(text[i + 1 : j])
            if idx <= 0:
                raise WordSyntaxError("variable indices are positive", i)
            tokens.append(("var", Var(c, idx), i))
            i = j
            continue
        raise WordSyntaxError(f"unexpected character {c!r}", i)
    tokens.append(("end", None, n))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0
        self.nesting = 0  # brackets open at the current position

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str) -> None:
        kind, payload, at = self.peek()
        if kind != "op" or payload != op:
            raise WordSyntaxError(f"expected {op!r}", at)
        self.take()

    def word(self) -> WordExpr:
        factors = [self.term()]
        while True:
            kind, payload, _ = self.peek()
            if kind == "op" and payload == "*":
                self.take()
                factors.append(self.term())
            elif kind in ("var",) or (kind == "op" and payload in "(["):
                factors.append(self.term())
            else:
                break
        if len(factors) == 1:
            return factors[0]
        return Product(tuple(factors))

    def inner(self) -> WordExpr:
        """A word inside one more bracket; bounding the nesting bounds the
        parser's recursion."""
        self.nesting += 1
        if self.nesting > MAX_WORD_DEPTH:
            raise WordSyntaxError(f"brackets nest deeper than {MAX_WORD_DEPTH}", self.peek()[2])
        out = self.word()
        self.nesting -= 1
        return out

    def term(self) -> WordExpr:
        atom = self.atom()
        kind, payload, _ = self.peek()
        if kind == "op" and payload == "^":
            self.take()
            return Power(atom, self.integer())
        return atom

    def integer(self) -> int:
        sign = 1
        kind, payload, at = self.peek()
        if kind == "op" and payload == "-":
            self.take()
            sign = -1
            kind, payload, at = self.peek()
        if kind != "int":
            raise WordSyntaxError("expected an integer exponent", at)
        self.take()
        return sign * payload  # type: ignore[operator]

    def atom(self) -> WordExpr:
        kind, payload, at = self.peek()
        if kind == "var":
            self.take()
            return payload  # type: ignore[return-value]
        if kind == "op" and payload == "(":
            self.take()
            inner = self.inner()
            self.expect_op(")")
            return inner
        if kind == "op" and payload == "[":
            self.take()
            entries = [self.inner()]
            while True:
                k, p, a = self.peek()
                if k == "op" and p == ",":
                    self.take()
                    entries.append(self.inner())
                else:
                    break
            self.expect_op("]")
            if len(entries) < 2:
                raise WordSyntaxError("a commutator needs at least two entries", at)
            out = entries[0]
            for entry in entries[1:]:
                out = Commutator(out, entry)
                if out._depth > MAX_WORD_DEPTH:
                    raise WordSyntaxError(f"word nests deeper than {MAX_WORD_DEPTH} levels", at)
            return out
        raise WordSyntaxError("expected a variable, '(' or '['", at)


def parse_word(text: str) -> WordExpr:
    """Parse word text; `[a,b,c,...]` desugars left-normed immediately."""
    parser = _Parser(_lex(text))
    out = parser.word()
    kind, _, at = parser.peek()
    if kind != "end":
        raise WordSyntaxError("trailing input", at)
    if out._depth > MAX_WORD_DEPTH:
        raise WordSyntaxError(f"word nests deeper than {MAX_WORD_DEPTH} levels", 0)
    return out


# ---------------------------------------------------------------------------
# free reduction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReducedWord:
    """Freely reduced letter sequence; the empty sequence is the identity."""

    letters: tuple[tuple[Var, int], ...]

    def __str__(self) -> str:
        if not self.letters:
            return "1"
        return "*".join(str(v) if s > 0 else f"{v}^-1" for v, s in self.letters)


def _letter_count(w: WordExpr) -> int:
    """Number of letters `_expand` returns for `w`."""
    if isinstance(w, Var):
        return 1
    if isinstance(w, Power):
        return abs(w.exponent) * _letter_count(w.child)
    if isinstance(w, Product):
        return sum(_letter_count(f) for f in w.factors)
    return 2 * (_letter_count(w.left) + _letter_count(w.right))


def _expand(w: WordExpr) -> list[tuple[Var, int]]:
    if isinstance(w, Var):
        return [(w, 1)]
    if isinstance(w, Power):
        if w.exponent == 0:
            return []
        body = _expand(w.child)
        if w.exponent < 0:
            body = [(v, -s) for v, s in reversed(body)]
        return body * abs(w.exponent)
    if isinstance(w, Product):
        out: list[tuple[Var, int]] = []
        for f in w.factors:
            out.extend(_expand(f))
        return out
    a, b = _expand(w.left), _expand(w.right)
    a_inv = [(v, -s) for v, s in reversed(a)]
    b_inv = [(v, -s) for v, s in reversed(b)]
    return a_inv + b_inv + a + b


def reduce_word(w: WordExpr) -> ReducedWord:
    """Expand commutators and powers, then cancel adjacent inverse pairs.

    Raises BudgetExceeded when the expansion would pass MAX_REDUCED_LETTERS.
    """
    size = _letter_count(w)
    if size > MAX_REDUCED_LETTERS:
        raise BudgetExceeded(size, MAX_REDUCED_LETTERS, "free reduction", unit="letters")
    stack: list[tuple[Var, int]] = []
    for letter in _expand(w):
        if stack and stack[-1][0] == letter[0] and stack[-1][1] == -letter[1]:
            stack.pop()
        else:
            stack.append(letter)
    return ReducedWord(tuple(stack))


def exponent_sum(w: WordExpr, var: Var) -> int:
    """Signed occurrence count of `var`; commutator subtrees contribute 0."""
    if isinstance(w, Var):
        return 1 if w == var else 0
    if isinstance(w, Power):
        return w.exponent * exponent_sum(w.child, var)
    if isinstance(w, Product):
        return sum(exponent_sum(f, var) for f in w.factors)
    return 0


def is_non_commutator(w: WordExpr) -> tuple[bool, Var | None, int]:
    """True iff some variable has non-zero exponent sum.

    The witness variable (first in canonical order) and its exponent sum are
    returned; the sum is the exponent usable for power-closure arguments.
    """
    for v in variables(w):
        e = exponent_sum(w, v)
        if e != 0:
            return True, v, e
    return False, None, 0


# ---------------------------------------------------------------------------
# outer commutator words
# ---------------------------------------------------------------------------


def comm(left: WordExpr, right: WordExpr) -> Commutator:
    """The commutator [left, right] of two words in disjoint variables."""
    shared = set(left._vars) & set(right._vars)
    if shared:
        raise DisjointnessViolation(
            f"repeated variable {sorted(map(str, shared))[0]} in commutator"
        )
    return Commutator(left, right)


# Distinct parameters kept by `gamma` and by `delta`; words are frozen, so
# every caller can share one word.
WORD_CACHE_SIZE = 128


@functools.lru_cache(maxsize=WORD_CACHE_SIZE)
def gamma(r: int) -> WordExpr:
    """Left-normed lower central word on x1..xr; gamma(1) is x1."""
    if r < 1:
        raise ValueError("gamma needs r >= 1")
    out: WordExpr = xvar(1)
    for i in range(2, r + 1):
        out = comm(out, xvar(i))
    return out


@functools.lru_cache(maxsize=WORD_CACHE_SIZE)
def delta(k: int) -> WordExpr:
    """Balanced derived word on x1..x(2^k); delta(0) is x1."""
    if k < 0:
        raise ValueError("delta needs k >= 0")

    def build(k_: int, start: int) -> WordExpr:
        if k_ == 0:
            return xvar(start)
        half = 1 << (k_ - 1)
        return comm(build(k_ - 1, start), build(k_ - 1, start + half))

    return build(k, 1)


def classify_outer_commutator(w: WordExpr) -> WordExpr | None:
    """`w` as an outer commutator word, or None if it is not syntactically one.

    An outer commutator comes back unchanged.  Otherwise only trivial wrappers
    are stripped: first powers and one-factor products.
    """
    if is_outer_commutator(w):
        return w
    stripped = _strip(w)
    return stripped if stripped is not None and is_outer_commutator(stripped) else None


def _strip(w: WordExpr) -> WordExpr | None:
    if isinstance(w, Var):
        return w
    if isinstance(w, Power) and w.exponent == 1:
        return _strip(w.child)
    if isinstance(w, Product) and len(w.factors) == 1:
        return _strip(w.factors[0])
    if isinstance(w, Commutator):
        left, right = _strip(w.left), _strip(w.right)
        return None if left is None or right is None else Commutator(left, right)
    return None


def substitute(w: WordExpr, mapping: Mapping[Var, WordExpr]) -> WordExpr:
    """Put mapping[x] in place of each variable x of `w` it names.

    The images of the variables of `w` (a variable the mapping does not name
    is its own image) must be pairwise disjoint in variables.
    """
    vars_ = variables(w)
    unknown = [v for v in mapping if v not in vars_]
    if unknown:
        raise ArityMismatch(f"{unknown[0]} is not a variable of {render(w)}")
    seen: set[Var] = set()
    for v in vars_:
        uvars = set(variables(mapping.get(v, v)))
        overlap = seen & uvars
        if overlap:
            raise DisjointnessViolation(
                f"substituted words share variable {sorted(map(str, overlap))[0]}"
            )
        seen |= uvars

    def walk(u: WordExpr) -> WordExpr:
        if isinstance(u, Var):
            return mapping.get(u, u)
        if isinstance(u, Power):
            return Power(walk(u.child), u.exponent)
        if isinstance(u, Product):
            return Product(tuple(walk(f) for f in u.factors))
        return Commutator(walk(u.left), walk(u.right))

    return walk(w)


# ---------------------------------------------------------------------------
# extended words
# ---------------------------------------------------------------------------


def _leaves(w: WordExpr) -> Iterator[Var]:
    """The variables of an outer commutator word in tree order, left to right."""
    if isinstance(w, Var):
        yield w
    else:
        yield from _leaves(w.left)
        yield from _leaves(w.right)


def y_renumbering(w: WordExpr) -> dict[Var, Var]:
    """y1, y2, ... for the y-variables of `w`, in order of first appearance
    left to right in the tree; empty when `w` has no y-variable."""
    mapping: dict[Var, Var] = {}
    for v in _leaves(w):
        if v.family == Y_FAMILY and v not in mapping:
            mapping[v] = yvar(len(mapping) + 1)
    return mapping


def canonical_y(w: WordExpr) -> WordExpr:
    """Renumber y-variables as y1, y2, ... in order of first appearance."""
    mapping = y_renumbering(w)
    return substitute(w, mapping) if mapping else w


def x_shift(w: WordExpr, offset: int) -> dict[Var, Var]:
    """x(i + offset) for each x-variable x(i) of `w`."""
    return {v: xvar(v.index + offset) for v in variables(w) if v.family == X_FAMILY}


def shift_x(w: WordExpr, offset: int) -> WordExpr:
    mapping = x_shift(w, offset)
    return substitute(w, mapping) if mapping else w


def is_pure_y(w: WordExpr) -> bool:
    """True when every variable of `w` is a y-variable; `variables` lists the
    x-family first, so the first variable decides."""
    vars_ = variables(w)
    return not vars_ or vars_[0].family == Y_FAMILY


def _y_shapes(max_leaves: int) -> list[WordExpr]:
    """All outer commutator shapes on 1..max_leaves fresh y-variables."""

    def build(size: int, start: int) -> list[WordExpr]:
        # start: first y-index used by this subtree (leaves numbered left to right)
        if size == 1:
            return [yvar(start)]
        out = []
        for lsize in range(1, size):
            for left in build(lsize, start):
                for right in build(size - lsize, start + lsize):
                    out.append(comm(left, right))
        return out

    shapes: list[WordExpr] = []
    for size in range(1, max_leaves + 1):
        shapes.extend(build(size, 1))
    return shapes


def _fresh_y(w: WordExpr, above: int) -> WordExpr:
    """Shift the y-indices of `w` so they all exceed `above`."""
    mapping = {v: yvar(v.index + above) for v in variables(w) if v.family == Y_FAMILY}
    return substitute(w, mapping) if mapping else w


def max_y(w: WordExpr) -> int:
    """The greatest y-index of `w`, 0 without y-variables."""
    return max((v.index for v in variables(w) if v.family == Y_FAMILY), default=0)


# Distinct (word, degree, shape bound) inputs kept by `enumerate_extended`.
EXTENDED_CACHE_SIZE = 64


@functools.lru_cache(maxsize=EXTENDED_CACHE_SIZE)
def enumerate_extended(w: WordExpr, k: int, shape_bound: int) -> tuple[WordExpr, ...]:
    """Enumerate degree-k extensions of the outer commutator word `w`.

    Inserted y-words range over all outer commutator shapes with at most
    `shape_bound` leaves (the full definition quantifies over all of them;
    the bound keeps the set finite).  Fresh y-variables take the smallest
    unused indices left to right, and members are deduplicated under
    canonical y-renumbering.  Results are cached for the process by
    (word, k, shape_bound); words and the result are frozen, so equal words
    share one result.
    """
    if k < 0:
        raise ValueError("extension degree must be >= 0")
    if shape_bound < 1:
        raise ValueError("shape bound must be >= 1")
    shapes = _y_shapes(shape_bound)
    memo: dict[tuple[WordExpr, int], frozenset[WordExpr]] = {}

    def ext(base: WordExpr, deg: int) -> frozenset[WordExpr]:
        key = (base, deg)
        if key in memo:
            return memo[key]
        if deg == 0:
            out = frozenset([canonical_y(base)])
            memo[key] = out
            return out
        found: set[WordExpr] = set()
        for q in ext(base, deg - 1):
            top = max_y(q)
            for shape in shapes:
                p = _fresh_y(shape, top)
                found.add(canonical_y(comm(p, q)))
                found.add(canonical_y(comm(q, p)))
        if not isinstance(base, Var):
            for la in range(deg + 1):
                mb = deg - la
                for p in ext(base.left, la):
                    for q in ext(base.right, mb):
                        q2 = _fresh_y(q, max_y(p))
                        found.add(canonical_y(comm(p, q2)))
        out = frozenset(found)
        memo[key] = out
        return out

    members = sorted(ext(w, k), key=lambda t: (len(variables(t)), render(t)))
    return tuple(members)


def extension_degree(v: WordExpr, w: WordExpr) -> int | None:
    """Smallest k with v an extension of w of degree k, or None.

    Both are outer commutator words.  Structural recogniser, independent of
    `enumerate_extended`: it admits inserted y-commutators of any size.
    """
    best: int | None = None

    def consider(candidate: int | None) -> None:
        nonlocal best
        if candidate is not None and (best is None or candidate < best):
            best = candidate

    # the stored texts name an outer commutator word exactly; `==` on the
    # trees would recurse through both at every level
    if render(v) == render(w):
        return 0
    if isinstance(v, Var):
        return None
    if is_pure_y(v.left):
        sub = extension_degree(v.right, w)
        consider(None if sub is None else sub + 1)
    if is_pure_y(v.right):
        sub = extension_degree(v.left, w)
        consider(None if sub is None else sub + 1)
    if not isinstance(w, Var):
        dl = extension_degree(v.left, w.left)
        dr = extension_degree(v.right, w.right)
        if dl is not None and dr is not None:
            consider(dl + dr)
    return best
