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
from typing import Iterator, Mapping, Sequence, Union

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

    @property
    def _vars(self) -> tuple["Var", ...]:
        return (self,)

    def __str__(self) -> str:
        return self._text


def xvar(i: int) -> Var:
    return Var(X_FAMILY, i)


def yvar(i: int) -> Var:
    return Var(Y_FAMILY, i)


# Every node stores its canonical text, its variables and its depth when it
# is built, from its children's stored values, so `render` and `variables` are
# attribute reads and no word tree is walked twice.  The stored attributes are
# not dataclass fields: equality, hashing and ordering ignore them.


def _store(node, text: str, vars_: tuple[Var, ...], children) -> None:
    object.__setattr__(node, "_text", text)
    object.__setattr__(node, "_vars", vars_)
    object.__setattr__(node, "_depth", 1 + max((c._depth for c in children), default=0))


def _merged_vars(children) -> tuple[Var, ...]:
    if len(children) == 1:
        return children[0]._vars
    return tuple(sorted(set().union(*(c._vars for c in children))))


def _atomish(w: "WordExpr") -> str:
    if isinstance(w, (Var, Commutator)):
        return w._text
    return f"({w._text})"


@dataclass(frozen=True)
class Inverse:
    child: "WordExpr"

    def __post_init__(self):
        _store(self, f"{_atomish(self.child)}^-1", self.child._vars, (self.child,))


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
        _store(self, f"[{self.left._text},{self.right._text}]", _merged_vars(children), children)


WordExpr = Union[Var, Inverse, Power, Product, Commutator]

EMPTY_WORD: WordExpr = Product(())


def variables(w: WordExpr) -> tuple[Var, ...]:
    """All variables of `w`, x-family first, each family by index."""
    return w._vars


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
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
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
            while j < n and text[j].isdigit():
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

    @property
    def is_identity(self) -> bool:
        return not self.letters

    def __str__(self) -> str:
        if not self.letters:
            return "1"
        return "*".join(str(v) if s > 0 else f"{v}^-1" for v, s in self.letters)


def _letter_count(w: WordExpr) -> int:
    """Number of letters `_expand` returns for `w`."""
    if isinstance(w, Var):
        return 1
    if isinstance(w, Inverse):
        return _letter_count(w.child)
    if isinstance(w, Power):
        return abs(w.exponent) * _letter_count(w.child)
    if isinstance(w, Product):
        return sum(_letter_count(f) for f in w.factors)
    return 2 * (_letter_count(w.left) + _letter_count(w.right))


def _expand(w: WordExpr) -> list[tuple[Var, int]]:
    if isinstance(w, Var):
        return [(w, 1)]
    if isinstance(w, Inverse):
        return [(v, -s) for v, s in reversed(_expand(w.child))]
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


def reduced_to_expr(r: ReducedWord) -> WordExpr:
    factors: list[WordExpr] = [
        v if s > 0 else Inverse(v) for v, s in r.letters
    ]
    if not factors:
        return EMPTY_WORD
    if len(factors) == 1:
        return factors[0]
    return Product(tuple(factors))


def exponent_sum(w: WordExpr, var: Var) -> int:
    """Signed occurrence count of `var`; commutator subtrees contribute 0."""
    if isinstance(w, Var):
        return 1 if w == var else 0
    if isinstance(w, Inverse):
        return -exponent_sum(w.child, var)
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
# outer commutator trees
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OcwTree:
    """Nesting of commutators in distinct variables; a lone variable counts."""

    var: Var | None = None
    left: "OcwTree | None" = None
    right: "OcwTree | None" = None

    def __post_init__(self):
        if self.var is not None:
            leaves: tuple[Var, ...] = (self.var,)
        else:
            leaves = self.left._leaves + self.right._leaves  # type: ignore[union-attr]
        object.__setattr__(self, "_leaves", leaves)
        object.__setattr__(self, "_word", None)

    @staticmethod
    def leaf(v: Var) -> "OcwTree":
        return OcwTree(var=v)

    @staticmethod
    def comm(left: "OcwTree", right: "OcwTree") -> "OcwTree":
        shared = set(left.leaves()) & set(right.leaves())
        if shared:
            raise DisjointnessViolation(
                f"repeated variable {sorted(map(str, shared))[0]} in commutator tree"
            )
        return OcwTree(left=left, right=right)

    @property
    def is_leaf(self) -> bool:
        return self.var is not None

    def leaves(self) -> tuple[Var, ...]:
        return self._leaves

    def to_word(self) -> WordExpr:
        """The commutator word of the tree, built on first use and kept."""
        if self._word is None:
            word = (
                self.var
                if self.var is not None
                else Commutator(self.left.to_word(), self.right.to_word())  # type: ignore[union-attr]
            )
            object.__setattr__(self, "_word", word)
        return self._word

    def render(self) -> str:
        return render(self.to_word())

    def rename(self, mapping: Mapping[Var, Var]) -> "OcwTree":
        if self.var is not None:
            return OcwTree.leaf(mapping.get(self.var, self.var))
        return OcwTree.comm(self.left.rename(mapping), self.right.rename(mapping))  # type: ignore[union-attr]

    def __str__(self) -> str:
        return self.render()


def as_word(w: WordExpr | OcwTree) -> WordExpr:
    """The word itself, or the commutator word of a tree."""
    return w.to_word() if isinstance(w, OcwTree) else w


def arity(w: WordExpr | OcwTree) -> int:
    """Number of distinct variables of a word or a tree."""
    return len(variables(as_word(w)))


# Distinct parameters kept by `gamma` and by `delta`; trees are frozen, so
# every caller can share one tree and the word it builds.
WORD_CACHE_SIZE = 128


@functools.lru_cache(maxsize=WORD_CACHE_SIZE)
def gamma(r: int) -> OcwTree:
    """Left-normed lower central word on x1..xr; gamma(1) is x1."""
    if r < 1:
        raise ValueError("gamma needs r >= 1")
    out = OcwTree.leaf(xvar(1))
    for i in range(2, r + 1):
        out = OcwTree.comm(out, OcwTree.leaf(xvar(i)))
    return out


@functools.lru_cache(maxsize=WORD_CACHE_SIZE)
def delta(k: int) -> OcwTree:
    """Balanced derived word on x1..x(2^k); delta(0) is x1."""
    if k < 0:
        raise ValueError("delta needs k >= 0")

    def build(k_: int, start: int) -> OcwTree:
        if k_ == 0:
            return OcwTree.leaf(xvar(start))
        half = 1 << (k_ - 1)
        return OcwTree.comm(build(k_ - 1, start), build(k_ - 1, start + half))

    return build(k, 1)


def classify_outer_commutator(w: WordExpr) -> OcwTree | None:
    """The commutator tree of `w`, or None if `w` is not syntactically one.

    Only trivial wrappers are tolerated: first powers and one-factor products.
    """
    tree = _classify(w)
    if tree is None:
        return None
    leaves = tree.leaves()
    if len(set(leaves)) != len(leaves):
        return None
    return tree


def _classify(w: WordExpr) -> OcwTree | None:
    if isinstance(w, Var):
        return OcwTree.leaf(w)
    if isinstance(w, Power) and w.exponent == 1:
        return _classify(w.child)
    if isinstance(w, Product) and len(w.factors) == 1:
        return _classify(w.factors[0])
    if isinstance(w, Commutator):
        left = _classify(w.left)
        right = _classify(w.right)
        if left is None or right is None:
            return None
        if set(left.leaves()) & set(right.leaves()):
            return None
        return OcwTree(left=left, right=right)
    return None


def substitute(w: OcwTree, args: Sequence[WordExpr]) -> WordExpr:
    """Replace leaf i of `w` (tree order) with args[i].

    The argument words must be pairwise disjoint in variables.
    """
    leaves = w.leaves()
    if len(args) != len(leaves):
        raise ArityMismatch(f"word has {len(leaves)} leaves, got {len(args)} arguments")
    seen: set[Var] = set()
    for u in args:
        uvars = set(variables(u))
        overlap = seen & uvars
        if overlap:
            raise DisjointnessViolation(
                f"substituted words share variable {sorted(map(str, overlap))[0]}"
            )
        seen |= uvars
    it = iter(args)

    def walk(t: OcwTree) -> WordExpr:
        if t.is_leaf:
            return next(it)
        return Commutator(walk(t.left), walk(t.right))  # type: ignore[arg-type]

    return walk(w)


# ---------------------------------------------------------------------------
# extended words
# ---------------------------------------------------------------------------


def canonical_y(t: OcwTree) -> OcwTree:
    """Renumber y-variables as y1, y2, ... in order of first appearance."""
    mapping: dict[Var, Var] = {}
    for v in t.leaves():
        if v.family == Y_FAMILY and v not in mapping:
            mapping[v] = yvar(len(mapping) + 1)
    return t.rename(mapping) if mapping else t


def shift_x(t: OcwTree, offset: int) -> OcwTree:
    mapping = {
        v: xvar(v.index + offset) for v in t.leaves() if v.family == X_FAMILY
    }
    return t.rename(mapping) if mapping else t


def is_pure_y(t: OcwTree) -> bool:
    return all(v.family == Y_FAMILY for v in t.leaves())


def _y_shapes(max_leaves: int) -> list[OcwTree]:
    """All outer commutator shapes on 1..max_leaves fresh y-variables."""

    def build(size: int, start: int) -> list[OcwTree]:
        # start: first y-index used by this subtree (leaves numbered left to right)
        if size == 1:
            return [OcwTree.leaf(yvar(start))]
        out = []
        for lsize in range(1, size):
            for left in build(lsize, start):
                for right in build(size - lsize, start + lsize):
                    out.append(OcwTree.comm(left, right))
        return out

    shapes: list[OcwTree] = []
    for size in range(1, max_leaves + 1):
        shapes.extend(build(size, 1))
    return shapes


def _fresh_y(t: OcwTree, above: int) -> OcwTree:
    """Shift the y-indices of `t` so they all exceed `above`."""
    ys = [v for v in t.leaves() if v.family == Y_FAMILY]
    if not ys:
        return t
    mapping = {v: yvar(v.index + above) for v in ys}
    return t.rename(mapping)


def _max_y(t: OcwTree) -> int:
    return max((v.index for v in t.leaves() if v.family == Y_FAMILY), default=0)


# Distinct (tree, degree, shape bound) inputs kept by `enumerate_extended`.
EXTENDED_CACHE_SIZE = 64


@dataclass(frozen=True)
class ExtendedWordSet:
    """Degree-k extensions of `word`, with inserted y-commutators bounded."""

    word: OcwTree
    degree: int
    shape_bound: int
    members: tuple[OcwTree, ...]

    def __contains__(self, item: OcwTree) -> bool:
        return canonical_y(item) in set(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[OcwTree]:
        return iter(self.members)


@functools.lru_cache(maxsize=EXTENDED_CACHE_SIZE)
def enumerate_extended(w: OcwTree, k: int, shape_bound: int) -> ExtendedWordSet:
    """Enumerate degree-k extensions of `w` by outer commutators.

    Inserted y-words range over all outer commutator shapes with at most
    `shape_bound` leaves (the full definition quantifies over all of them;
    the bound keeps the set finite).  Fresh y-variables take the smallest
    unused indices left to right, and members are deduplicated under
    canonical y-renumbering.  Results are cached for the process by
    (tree, k, shape_bound); trees and the result are frozen, so equal trees
    share one result.
    """
    if k < 0:
        raise ValueError("extension degree must be >= 0")
    if shape_bound < 1:
        raise ValueError("shape bound must be >= 1")
    shapes = _y_shapes(shape_bound)
    memo: dict[tuple[OcwTree, int], frozenset[OcwTree]] = {}

    def ext(base: OcwTree, deg: int) -> frozenset[OcwTree]:
        key = (base, deg)
        if key in memo:
            return memo[key]
        if deg == 0:
            out = frozenset([canonical_y(base)])
            memo[key] = out
            return out
        found: set[OcwTree] = set()
        for q in ext(base, deg - 1):
            top = _max_y(q)
            for shape in shapes:
                p = _fresh_y(shape, top)
                found.add(canonical_y(OcwTree.comm(p, q)))
                found.add(canonical_y(OcwTree.comm(q, p)))
        if not base.is_leaf:
            for la in range(deg + 1):
                mb = deg - la
                for p in ext(base.left, la):  # type: ignore[arg-type]
                    for q in ext(base.right, mb):  # type: ignore[arg-type]
                        q2 = _fresh_y(q, _max_y(p))
                        found.add(canonical_y(OcwTree.comm(p, q2)))
        out = frozenset(found)
        memo[key] = out
        return out

    members = sorted(ext(w, k), key=lambda t: (len(t.leaves()), t.render()))
    return ExtendedWordSet(word=w, degree=k, shape_bound=shape_bound, members=tuple(members))


def extension_degree(v: OcwTree, w: OcwTree) -> int | None:
    """Smallest k with v an extension of w of degree k, or None.

    Structural recogniser, independent of `enumerate_extended`: it admits
    inserted y-commutators of any size.
    """
    best: int | None = None

    def consider(candidate: int | None) -> None:
        nonlocal best
        if candidate is not None and (best is None or candidate < best):
            best = candidate

    if v == w:
        return 0
    if v.is_leaf:
        return None
    assert v.left is not None and v.right is not None
    if is_pure_y(v.left):
        sub = extension_degree(v.right, w)
        consider(None if sub is None else sub + 1)
    if is_pure_y(v.right):
        sub = extension_degree(v.left, w)
        consider(None if sub is None else sub + 1)
    if not w.is_leaf:
        dl = extension_degree(v.left, w.left)  # type: ignore[arg-type]
        dr = extension_degree(v.right, w.right)  # type: ignore[arg-type]
        if dl is not None and dr is not None:
            consider(dl + dr)
    return best
