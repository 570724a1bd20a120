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

    def axis_values(self, flat: np.ndarray) -> list[np.ndarray]:
        return [a[i] for a, i in zip(self.axes, np.unravel_index(flat, self.sizes))]

    def blocks(self) -> Iterator[tuple[int, list[np.ndarray]]]:
        for rows in row_blocks(self.size, 1):
            yield rows.start, self.axis_values(np.arange(rows.start, rows.stop, dtype=np.int64))

    def first_failure(self, holds: Callable[[list[np.ndarray]], np.ndarray]) -> int | None:
        """Flat index of the first tuple at which `holds` is False, or None
        if it holds on all of them.  `holds` maps the axis columns of a block
        to one boolean per tuple."""
        for start, cols in self.blocks():
            bad = np.flatnonzero(~holds(cols))
            if bad.size:
                return start + int(bad[0])
        return None

    def tuple_at(self, flat: int) -> tuple[int, ...]:
        return tuple(int(c[0]) for c in self.axis_values(np.array([flat])))
