"""Independent brute-force oracles, deliberately free of package imports.

Everything here recomputes group data from first principles with plain
Python sets and dicts (numpy only for the linearity sweep), so the main
engine can be checked against a second implementation that shares no code
with it.
"""

from __future__ import annotations

import itertools

import numpy as np

# quaternion units as strings
_QUAT = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]
_QMUL = {
    ("1", "1"): "1", ("1", "i"): "i", ("1", "j"): "j", ("1", "k"): "k",
    ("i", "1"): "i", ("j", "1"): "j", ("k", "1"): "k",
    ("i", "i"): "-1", ("j", "j"): "-1", ("k", "k"): "-1",
    ("i", "j"): "k", ("j", "k"): "i", ("k", "i"): "j",
    ("j", "i"): "-k", ("k", "j"): "-i", ("i", "k"): "-j",
}


def quat_mul(a: str, b: str) -> str:
    sign = -1 if a.startswith("-") != b.startswith("-") else 1
    base = _QMUL[(a.lstrip("-"), b.lstrip("-"))]
    if base.startswith("-"):
        sign, base = -sign, base.lstrip("-")
    return base if sign > 0 else ("-" + base if base != "1" else "-1")


def quat_inv(a: str) -> str:
    for b in _QUAT:
        if quat_mul(a, b) == "1":
            return b
    raise AssertionError(a)


def perm_mul(p, q):
    return tuple(p[q[i]] for i in range(len(p)))


def perm_inv(p):
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


def perm_products(images):
    """``out[a, b]`` is the image tuple of ``images[a] * images[b]`` (apply
    ``images[b]`` first), for every pair at once."""
    P = np.asarray(images)
    return P[np.arange(len(P))[:, None, None], P[None, :, :]]


def heis_mul(u, v, p):
    """Upper unitriangular 3x3 matrices over Z/p as triples (a, b, c):
    (a,b,c)(d,e,f) = (a+d, b+e, c+f+ae)."""
    (a, b, c), (d, e, f) = u, v
    return (a + d) % p, (b + e) % p, (c + f + a * e) % p


def heis_element(name: str):
    """The triple written ``(a,b,c)``."""
    return tuple(int(t) for t in name.strip("()").split(","))


def dih_mul(u, v, n):
    """r^i s^j as (i, j), with s r s = r^-1:
    r^i s^j r^k s^l = r^(i + (-1)^j k) s^(j + l)."""
    (i, j), (k, l) = u, v
    return (i + (-1) ** j * k) % n, (j + l) % 2


def dih_element(name: str):
    """(i, j) for the names ``e``, ``r<i>``, ``s`` and ``r<i>s``."""
    j = 1 if name.endswith("s") else 0
    body = name[: len(name) - j]
    return (int(body[1:]) if body.startswith("r") else 0), j


def sym_elements(n: int):
    return list(itertools.permutations(range(n)))


def alt_elements(n: int):
    def parity(p):
        seen, swaps = [False] * len(p), 0
        for i in range(len(p)):
            if seen[i]:
                continue
            j, clen = i, 0
            while not seen[j]:
                seen[j] = True
                j = p[j]
                clen += 1
            swaps += clen - 1
        return swaps % 2

    return [p for p in sym_elements(n) if parity(p) == 0]


def commutator(mul, inv, a, b):
    return mul(mul(inv(a), inv(b)), mul(a, b))


def element_order(a, mul, identity) -> int:
    n, g = 1, a
    while g != identity:
        g = mul(g, a)
        n += 1
    return n


def evaluate_letters(letters, assignment, mul, inv, identity):
    """Value of a letter sequence of (variable, +-1) pairs, multiplied out
    left to right."""
    out = identity
    for var, sign in letters:
        g = assignment[var]
        out = mul(out, g if sign > 0 else inv(g))
    return out


def letters_text(letters) -> str:
    """Word text of a letter sequence of (variable, +-1) pairs; the empty
    sequence is written x1^0."""
    return "*".join(f"{var}^{sign}" for var, sign in letters) or "x1^0"


def commutator_values(elements, mul, inv):
    return {commutator(mul, inv, a, b) for a in elements for b in elements}


def close_under_products(seed, mul, inv):
    """Subgroup closure by repeated products, pure set arithmetic."""
    out = set(seed)
    if not out:
        return out
    some = next(iter(out))
    out.add(mul(some, inv(some)))  # identity
    out |= {inv(g) for g in out}
    while True:
        new = {mul(a, b) for a in out for b in out} - out
        if not new:
            return out
        out |= new


def derived_subgroup_order(elements, mul, inv) -> int:
    values = commutator_values(elements, mul, inv)
    return len(close_under_products(values, mul, inv))


def second_derived_value_closure_order(elements, mul, inv) -> int:
    """Order of the subgroup generated by values of [[x1,x2],[x3,x4]]."""
    comms = sorted(commutator_values(elements, mul, inv))
    values = {commutator(mul, inv, a, b) for a in comms for b in comms}
    return len(close_under_products(values, mul, inv))


def pinned_verbal_orders() -> dict[str, int]:
    out = {}
    out["quat:8"] = derived_subgroup_order(_QUAT, quat_mul, quat_inv)
    out["sym:3"] = derived_subgroup_order(sym_elements(3), perm_mul, perm_inv)
    out["sym:4"] = derived_subgroup_order(sym_elements(4), perm_mul, perm_inv)
    out["alt:4"] = derived_subgroup_order(alt_elements(4), perm_mul, perm_inv)
    out["delta2 sym:4"] = second_derived_value_closure_order(
        sym_elements(4), perm_mul, perm_inv
    )
    return out


def linearity_in_g(table, inverse, modulus_mask, pivot_left, sibling_values, pivot_elems, block=1 << 18):
    """First tuple breaking linearity modulo P, swept over G itself; None if none does.

    This is the sweep the engine ran before it moved to the quotient G/P.
    Along the root-to-pivot path of an outer commutator word, depth i has
    the sibling values `sibling_values[i]` and `pivot_left[i]` tells whether
    the pivot lies in the left child.  Every tuple (s_1, ..., s_d, x, y) with
    x, y in `pivot_elems` is checked for w(..xy..) = w(..x..) w(..y..)
    modulo the normal subgroup whose membership mask is `modulus_mask`;
    tuples run in row-major order and the first failure is returned.
    """
    table = np.asarray(table)
    inverse = np.asarray(inverse)
    axes = [np.asarray(v) for v in sibling_values] + [np.asarray(pivot_elems)] * 2
    shape = tuple(a.size for a in axes)
    total = int(np.prod(shape, dtype=np.int64))

    def comm(a, b):
        return table[table[table[inverse[a], inverse[b]], a], b]

    def spine(x, sibs):
        out = x
        for left, s in zip(reversed(pivot_left), reversed(sibs)):
            out = comm(out, s) if left else comm(s, out)
        return out

    for start in range(0, total, block):
        idx = np.unravel_index(np.arange(start, min(total, start + block)), shape)
        cols = [a[i] for a, i in zip(axes, idx)]
        sibs, x, y = cols[:-2], cols[-2], cols[-1]
        lhs = spine(table[x, y], sibs)
        rhs = table[spine(x, sibs), spine(y, sibs)]
        bad = np.flatnonzero(~modulus_mask[table[lhs, inverse[rhs]]])
        if bad.size:
            return tuple(int(c[bad[0]]) for c in cols)
    return None


def table_ops(table):
    """The multiplication table as an array, and the inverse of each element,
    found from the table alone (the identity is the one idempotent)."""
    t = np.asarray(table)
    e = next(a for a in range(len(t)) if t[a, a] == a)
    return t, np.argmax(t == e, axis=1)


def commutator_closure(table, A, B):
    """[A, B]: the subgroup generated by every [a, b], by set arithmetic."""
    t, inv = table_ops(table)
    comms = {int(t[t[inv[a], inv[b]], t[a, b]]) for a in A for b in B}
    return close_under_products(comms, lambda a, b: int(t[a, b]), lambda a: int(inv[a]))


def normal_subgroups(table):
    """Every normal subgroup, as frozensets: the normal closures of single
    elements, closed under products."""
    t, inv = table_ops(table)
    n = len(t)
    mul, inverse = (lambda a, b: int(t[a, b])), (lambda a: int(inv[a]))
    found = {
        frozenset(close_under_products({int(t[t[inv[g], a], g]) for g in range(n)}, mul, inverse))
        for a in range(n)
    }
    while True:
        more = {frozenset(close_under_products(A | B, mul, inverse)) for A in found for B in found}
        if more <= found:
            return found
        found |= more


def conjugacy_classes(table):
    """Every conjugacy class, as frozensets, from the table alone and with no
    inverses: b is conjugate to a when g b = a g for some g, and row g of a
    Latin square holds a g in exactly one column b."""
    t = np.asarray(table)
    solve = np.argsort(t, axis=1)  # solve[g, c] is the b with g b = c
    n = len(t)
    return {frozenset(int(solve[g, t[a, g]]) for g in range(n)) for a in range(n)}


def is_class_union(classes, members) -> bool:
    """Whether `members` is a union of the given classes, i.e. normal."""
    members = set(members)
    return all(c <= members or not (c & members) for c in classes)


def congruence_modulus(table, K, L, N):
    """[K,N,K][L,N], from commutators and products alone."""
    t, inv = table_ops(table)
    knk = commutator_closure(table, commutator_closure(table, K, N), K)
    ln = commutator_closure(table, L, N)
    return close_under_products(knk | ln, lambda a, b: int(t[a, b]), lambda a: int(inv[a]))


def comm_congruence_in_g(table, ys, zs, ls, ns, modulus):
    """Lemma 2.8 swept over G itself: the first (y, z, l, n), in row-major
    order of the four element lists, at which [yzl, n] and [y,n][z,n] differ
    modulo the subgroup `modulus`, or None; and the number of tuples swept.

    This is the sweep the engine ran before it moved to G/[K,N,K][L,N].
    """
    t, inv = table_ops(table)
    mask = np.zeros(len(t), dtype=bool)
    mask[sorted(modulus)] = True
    y, z, l, n = (a.ravel() for a in np.meshgrid(ys, zs, ls, ns, indexing="ij"))

    def comm(a, b):
        return t[t[inv[a], inv[b]], t[a, b]]

    lhs = comm(t[t[y, z], l], n)
    rhs = t[comm(y, n), comm(z, n)]
    bad = np.flatnonzero(~mask[t[lhs, inv[rhs]]])
    first = tuple(int(c[bad[0]]) for c in (y, z, l, n)) if bad.size else None
    return first, int(y.size)


def star_power_by_sets(table, S, n):
    """Products of at most n factors from S and the inverses of its
    elements, by set arithmetic; the empty product is the identity."""
    t, inv = table_ops(table)
    e = int(t[0, inv[0]])
    step = {e} | {int(s) for s in S} | {int(inv[s]) for s in S}
    out = {e}
    for _ in range(n):
        out = {int(t[a, b]) for a in out for b in step}
    return out


def _pure_y(w) -> bool:
    if hasattr(w, "left"):
        return _pure_y(w.left) and _pure_y(w.right)
    return w.family == "y"


def extension_degree_uncached(v, w):
    """Smallest k with the outer commutator word v a degree-k extension of w,
    or None, by the defining recursion with no memo: v is w (degree 0); v is
    [y, u] or [u, y] for a pure-y word y and u an extension of w (one more);
    or v = [a, b] and w = [c, d] with a, b extensions of c, d (degrees add).
    Words are read only through `left`, `right` and a variable's `family`."""
    if v == w:
        return 0
    if not hasattr(v, "left"):
        return None
    found = []
    for y, u in ((v.left, v.right), (v.right, v.left)):
        if _pure_y(y):
            d = extension_degree_uncached(u, w)
            if d is not None:
                found.append(d + 1)
    if hasattr(w, "left"):
        dl = extension_degree_uncached(v.left, w.left)
        dr = extension_degree_uncached(v.right, w.right)
        if dl is not None and dr is not None:
            found.append(dl + dr)
    return min(found, default=None)
