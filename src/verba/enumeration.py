"""Deterministic product-space enumeration with budgets and block iteration.

Flat indices run in row-major order, so iterating blocks visits assignment
tuples in lexicographic order of the axes.  Every exhaustive sweep in the
package funnels through ProductSpace so that budgets, determinism and
witness order are decided in one place.
"""

from __future__ import annotations

from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import BudgetExceeded

DEFAULT_BUDGET = 10**8
# Cells in the working set of every exhaustive kernel, read at call time; the
# value is measured (README, "Performance notes").
BLOCK = 1 << 16


def require_budget(size: int, budget: int | None, what: str) -> None:
    """Refuse `size` units of work over `budget`, DEFAULT_BUDGET with None."""
    limit = DEFAULT_BUDGET if budget is None else budget
    if size > limit:
        raise BudgetExceeded(size, limit, what)


def row_blocks(rows: int, width: int) -> Iterator[slice]:
    """Consecutive slices of range(rows) of BLOCK // width rows, one at least:
    a block of `width`-cell rows holds BLOCK cells at most, or one longer row."""
    step = max(1, BLOCK // max(width, 1))
    for start in range(0, rows, step):
        yield slice(start, min(start + step, rows))


class ProductSpace:
    def __init__(self, axes: Sequence[np.ndarray]):
        self.axes = [np.asarray(a) for a in axes]
        self.sizes = [int(a.shape[0]) for a in self.axes]
        self.size = 1
        for s in self.sizes:
            self.size *= s

    def require_within(self, budget: int | None, what: str = "enumeration") -> "ProductSpace":
        require_budget(self.size, budget, what)
        return self

    def blocks(self) -> Iterator[tuple[int, list[np.ndarray]]]:
        """The tuples in row-major blocks, as (flat index of the first tuple,
        one column per axis).  A block is a run of k consecutive index
        combinations of the leading axes, as many as fit in BLOCK cells with
        the whole trailing axes t..n; only the leading indices are decoded,
        each trailing column is its axis reshaped, and the columns broadcast
        to (k, s_t, ..., s_n), so a sub-word that reads fewer axes is
        evaluated on its smaller shape.  A last axis longer than BLOCK is cut
        into slices of BLOCK entries."""
        if not self.size:
            return
        sizes = self.sizes
        lead, tail = len(sizes) - 1, sizes[-1]  # axes[lead:] are trailing, with tail cells
        while lead and tail * sizes[lead - 1] <= BLOCK:
            lead -= 1
            tail *= sizes[lead]
        ndim = 1 + len(sizes) - lead
        first, *others = [
            a.reshape((1,) * j + (-1,) + (1,) * (ndim - 1 - j))
            for j, a in enumerate(self.axes[lead:], start=1)
        ]
        step, combos = max(1, BLOCK // tail), self.size // tail
        for a in range(0, combos, step):
            index = np.unravel_index(np.arange(a, min(a + step, combos)), sizes[:lead]) if lead else ()
            cols = [axis[i].reshape((-1,) + (1,) * (ndim - 1)) for axis, i in zip(self.axes, index)]
            for c in range(0, sizes[lead], BLOCK):  # one slice unless tail > BLOCK
                yield a * tail + c, cols + [first[:, c : c + BLOCK], *others]

    def first_failure(self, holds: Callable[[list[np.ndarray]], np.ndarray]) -> int | None:
        """Flat index of the first tuple at which `holds` is False, or None
        if it holds on all of them.  `holds` maps the columns of a block to
        booleans that broadcast to the block, and may leave an axis it
        ignores at length 1."""
        for start, cols in self.blocks():
            bad = ~holds(cols)
            first = int(bad.argmax())  # the first True in row-major order, if any
            if bad.flat[first]:
                shape = np.broadcast(*cols).shape
                if bad.shape != shape:
                    first = int(np.broadcast_to(bad, shape).argmax())
                return start + first
        return None

    def tuple_at(self, flat: int) -> tuple[int, ...]:
        return tuple(int(a[i]) for a, i in zip(self.axes, np.unravel_index(flat, self.sizes)))
