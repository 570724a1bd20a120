"""Outside-in tracing of verba's public functions, from the benchmark's files.

`Tracer.install` wraps each function in `TARGETS` by rebinding its name in
every loaded ``verba`` module that holds it (so ``verba.verbal.closure`` is
wrapped as well as ``verba.groups.closure``, and calls made inside the package
are seen), and wraps methods on their class.  Each call to a spanned target
appends one span (function, parent span, start, end) to flat arrays kept in
memory; counts and distinct keys are taken from the call's result.
`Tracer.uninstall` puts every original back.  Nothing under ``src/`` changes.

A span's self time is its duration minus the time its child spans cover.
Calls are synchronous, so children nest inside their parent and do not
overlap, and the covered time is the sum of the children's durations.
"""

from __future__ import annotations

import functools
import sys
import time
import weakref
from array import array
from collections import Counter
from dataclasses import dataclass
from typing import Callable

# Written out, not read from verba, so the per-layer metric names stay fixed
# when the program's check table changes.
CHECK_IDS = (
    "L2.1", "L2.2", "L2.3", "L2.5", "L2.6", "L2.8", "T2.10", "T2.11-bound",
    "C2.12", "C2.13", "L3.2", "T3.6", "T3.7-bound", "C3.8", "C3.9", "CONJ",
)


@dataclass(frozen=True)
class Target:
    """One function to wrap.

    `attr` is a module attribute (``closure``) or a class method
    (``FiniteGroup.comm_arr``).  `span` names the span each call records; with
    None the call is only counted under `count`.  `hook` sees the call's
    arguments and result; `on_error` sees an exception before it propagates.
    """

    module: str
    attr: str
    span: str | None = None
    count: str | None = None
    hook: Callable | None = None
    on_error: Callable | None = None
    generator: bool = False
    label: Callable | None = None  # span name chosen from the arguments


def _closure_seed(tracer, args, kwargs, result):
    # `generators` holds the closure's seed elements, sorted and distinct.
    tracer.distinct("groups.closure_distinct_seeds", (tracer.group_id(result.group), result.generators))


def _gathered(tracer, args, kwargs, result):
    tracer.counts["groups.gather_elems"] += int(getattr(result, "size", 1))


def _value_set_key(tracer, args, kwargs, result):
    # The same key the value-set cache uses: word and the subsets' masks.
    key = (tracer.group_id(result.members.group), result.word, tuple(s.key for s in result.subsets))
    tracer.distinct("verbal.value_set_distinct", key)


def _linearity_tuples(tracer, args, kwargs, result):
    tracer.counts["verbal.linearity_tuples"] += int(result.space)


def _factors(tracer, args, kwargs, result):
    tracer.counts["series.factors_verified"] += len(result.factors)


def _space_size(tracer, args, kwargs, result):
    tracer.counts["enumeration.nominal_tuples"] += int(args[0].size)


def _refused(tracer, exc):
    tracer.counts["enumeration.budget_refusals"] += 1


def _check_label(args, kwargs):
    spec = args[0] if args else kwargs["spec"]
    return f"harness.run_check[{spec.check_id}]"


BUILD_SPANS = (
    "groups.builtin_group",
    "groups.group_from_permutations",
    "groups.group_from_cayley",
    "groups.direct_product",
    "groups.load_group_file",
)

TARGETS: tuple[Target, ...] = (
    Target("verba.words", "parse_word", span="words.parse_word"),
    Target("verba.words", "render", span="words.render"),
    Target("verba.words", "variables", span="words.variables"),
    *(Target("verba.groups", name.split(".")[1], span=name) for name in BUILD_SPANS),
    Target("verba.groups", "closure", span="groups.closure", hook=_closure_seed),
    Target("verba.groups", "star_power", span="groups.star_power"),
    Target("verba.groups", "commutator_subgroup", span="groups.commutator_subgroup"),
    Target("verba.groups", "subgroup_product", span="groups.subgroup_product"),
    Target("verba.groups", "FiniteGroup.comm_arr", span="groups.comm_arr", hook=_gathered),
    Target("verba.groups", "FiniteGroup.mul_arr", span="groups.mul_arr", hook=_gathered),
    Target("verba.enumeration", "ProductSpace.__init__", count="enumeration.spaces", hook=_space_size),
    Target("verba.enumeration", "ProductSpace.require_within", count="enumeration.require_within",
           on_error=_refused),
    Target("verba.enumeration", "ProductSpace.blocks", count="enumeration.blocks", generator=True),
    Target("verba.verbal", "value_set", span="verbal.value_set"),
    Target("verba.verbal", "value_set_over", span="verbal.value_set_over", hook=_value_set_key),
    Target("verba.verbal", "verbal_subgroup", span="verbal.verbal_subgroup"),
    Target("verba.verbal", "check_linearity", span="verbal.check_linearity", hook=_linearity_tuples),
    Target("verba.verbal", "class_generating_subset", span="verbal.class_generating_subset"),
    Target("verba.series", "build_gamma_series", span="series.build_gamma_series"),
    Target("verba.series", "build_delta_series", span="series.build_delta_series"),
    Target("verba.series", "verify_series", span="series.verify_series", hook=_factors),
    Target("verba.series", "generator_bound_report", span="series.generator_bound_report"),
    Target("verba.harness", "run_check", label=_check_label),
    Target("verba.cli", "main", span="cli.main"),
)

TRACED_MARK = "__perfbench_traced__"


def self_times(parent, start, end):
    """Per-span self time: duration minus the durations of its child spans.

    `parent` holds each span's parent index (-1 for a root); spans of one
    synchronous call tree nest, so children never overlap each other."""
    import numpy as np

    parent = np.asarray(parent, dtype=np.int64)
    dur = np.asarray(end, dtype=np.int64) - np.asarray(start, dtype=np.int64)
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
    return dur - child.astype(np.int64)


def covered(start, end, select) -> int:
    """Length of the union of the selected spans' intervals (spans in start order).

    For nested spans of one family this is the time under the outermost ones."""
    total, reach = 0, None
    for i in select:
        s, e = start[i], end[i]
        if reach is None or s >= reach:
            total += e - s
            reach = e
    return total


class Tracer:
    """Spans and counts for one traced run; see the module docstring."""

    def __init__(self):
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.fn = array("i")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.keys: dict[str, set] = {}
        self._group_ids: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._groups_seen = 0
        self._summary: dict | None = None
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def name_index(self, name: str) -> int:
        idx = self._index.get(name)
        if idx is None:
            idx = self._index[name] = len(self.names)
            self.names.append(name)
        return idx

    def distinct(self, metric: str, key) -> None:
        self.keys.setdefault(metric, set()).add(key)

    def group_id(self, group) -> int:
        """A serial per group object, stable while the group is alive."""
        gid = self._group_ids.get(group)
        if gid is None:
            gid = self._group_ids[group] = self._groups_seen
            self._groups_seen += 1
        return gid

    def _wrap(self, target: Target, original):
        tracer, counts = self, self.counts
        hook, on_error = target.hook, target.on_error

        if target.generator:
            def counted_gen(*args, **kwargs):
                for item in original(*args, **kwargs):
                    counts[target.count] += 1
                    yield item
            return counted_gen

        if target.span is None and target.label is None:
            def counted(*args, **kwargs):
                counts[target.count] += 1
                try:
                    result = original(*args, **kwargs)
                except Exception as exc:
                    if on_error is not None:
                        on_error(tracer, exc)
                    raise
                if hook is not None:
                    hook(tracer, args, kwargs, result)
                return result
            return counted

        fn, parent, start, end, stack = self.fn, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter_ns
        fixed = None if target.span is None else self.name_index(target.span)
        label = target.label

        def traced(*args, **kwargs):
            idx = fixed if label is None else tracer.name_index(label(args, kwargs))
            span = len(fn)
            fn.append(idx)
            parent.append(stack[-1] if stack else -1)
            start.append(0)
            end.append(0)
            stack.append(span)
            t0 = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end[span] = clock()
                start[span] = t0
                stack.pop()
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        return traced

    # -- installing ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every target; verba must already be imported."""
        if self._restore:
            raise RuntimeError("tracer is already installed")
        modules = [m for n, m in list(sys.modules.items())
                   if (n == "verba" or n.startswith("verba.")) and m is not None]
        for target in TARGETS:
            home = sys.modules[target.module]
            if "." in target.attr:
                cls_name, meth = target.attr.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[meth]
                wrapper = self._mark(self._wrap(target, original), original)
                setattr(cls, meth, wrapper)
                self._restore.append((cls, meth, original))
                continue
            original = getattr(home, target.attr)
            wrapper = self._mark(self._wrap(target, original), original)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, name, wrapper)
                        self._restore.append((mod, name, original))

    @staticmethod
    def _mark(wrapper, original):
        functools.update_wrapper(wrapper, original)
        setattr(wrapper, TRACED_MARK, True)
        return wrapper

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- reading ---------------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds (outermost spans only) and self seconds."""
        import numpy as np

        if self._summary is not None:
            return self._summary

        fn = np.frombuffer(self.fn, dtype=np.int32) if len(self.fn) else np.zeros(0, np.int32)
        selfs = self_times(self.parent, self.start, self.end)
        n = len(self.names)
        calls = np.bincount(fn, minlength=n)
        self_ns = np.bincount(fn, weights=selfs, minlength=n)
        out = {}
        for i, name in enumerate(self.names):
            select = np.flatnonzero(fn == i)
            out[name] = {
                "calls": int(calls[i]),
                "inclusive_s": covered(self.start, self.end, select) / 1e9,
                "self_s": float(self_ns[i]) / 1e9,
            }
        self._summary = out
        return out

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """The per-layer metrics, by name, as (value, unit)."""
        import numpy as np

        spans = self.summary()
        fn = np.frombuffer(self.fn, dtype=np.int32) if len(self.fn) else np.zeros(0, np.int32)

        def get(name, key):
            return spans.get(name, {}).get(key, 0)

        def union(*names):
            ids = [self._index[n] for n in names if n in self._index]
            return covered(self.start, self.end, np.flatnonzero(np.isin(fn, ids))) / 1e9

        c, k = self.counts, self.keys
        m: dict[str, tuple[float, str]] = {
            "groups.build_s": (union(*BUILD_SPANS), "s"),
            "groups.closure_calls": (get("groups.closure", "calls"), "count"),
            "groups.closure_s": (get("groups.closure", "self_s"), "s"),
            "groups.closure_distinct_seeds": (len(k.get("groups.closure_distinct_seeds", ())), "count"),
            "groups.star_power_calls": (get("groups.star_power", "calls"), "count"),
            "groups.star_power_s": (get("groups.star_power", "self_s"), "s"),
            "groups.commutator_subgroup_calls": (get("groups.commutator_subgroup", "calls"), "count"),
            "groups.commutator_subgroup_s": (get("groups.commutator_subgroup", "self_s"), "s"),
            "groups.subgroup_product_s": (get("groups.subgroup_product", "self_s"), "s"),
            "groups.comm_arr_calls": (get("groups.comm_arr", "calls"), "count"),
            "groups.comm_arr_s": (get("groups.comm_arr", "self_s"), "s"),
            "groups.gather_elems": (c["groups.gather_elems"], "count"),
            "words.variables_calls": (get("words.variables", "calls"), "count"),
            "words.render_calls": (get("words.render", "calls"), "count"),
            "words.parse_calls": (get("words.parse_word", "calls"), "count"),
            "words.self_s": (sum(get(f"words.{f}", "self_s") for f in ("parse_word", "render", "variables")), "s"),
            "enumeration.spaces": (c["enumeration.spaces"], "count"),
            "enumeration.nominal_tuples": (c["enumeration.nominal_tuples"], "count"),
            "enumeration.blocks": (c["enumeration.blocks"], "count"),
            "enumeration.budget_refusals": (c["enumeration.budget_refusals"], "count"),
            "verbal.value_set_calls": (get("verbal.value_set_over", "calls"), "count"),
            "verbal.value_set_s": (get("verbal.value_set", "self_s") + get("verbal.value_set_over", "self_s"), "s"),
            "verbal.value_set_distinct": (len(k.get("verbal.value_set_distinct", ())), "count"),
            "verbal.linearity_calls": (get("verbal.check_linearity", "calls"), "count"),
            "verbal.linearity_s": (get("verbal.check_linearity", "inclusive_s"), "s"),
            "verbal.linearity_tuples": (c["verbal.linearity_tuples"], "count"),
            "verbal.verbal_subgroup_calls": (get("verbal.verbal_subgroup", "calls"), "count"),
            "verbal.class_generating_subset_s": (get("verbal.class_generating_subset", "self_s"), "s"),
            "series.build_s": (union("series.build_gamma_series", "series.build_delta_series"), "s"),
            "series.verify_s": (union("series.verify_series"), "s"),
            "series.bound_s": (union("series.generator_bound_report"), "s"),
            "series.factors_verified": (c["series.factors_verified"], "count"),
        }
        lin_s = m["verbal.linearity_s"][0]
        m["verbal.linearity_tuples_per_s"] = (m["verbal.linearity_tuples"][0] / lin_s if lin_s else 0.0, "1/s")
        harness_self = 0.0
        for check_id in CHECK_IDS:
            name = f"harness.run_check[{check_id}]"
            m[f"harness.check_s.{check_id}"] = (get(name, "inclusive_s"), "s")
            m[f"harness.checks.{check_id}"] = (get(name, "calls"), "count")
            harness_self += get(name, "self_s")
        m["harness.self_s"] = (harness_self, "s")
        m["cli.main_s"] = (get("cli.main", "self_s"), "s")
        return m

    def write(self, path) -> None:
        """Write the spans and per-name summary: ``<path>.npz`` and ``<path>.json``."""
        import json

        import numpy as np

        np.savez_compressed(
            f"{path}.npz",
            fn=np.frombuffer(self.fn, dtype=np.int32) if len(self.fn) else np.zeros(0, np.int32),
            parent=np.asarray(self.parent, dtype=np.int64),
            start_ns=np.asarray(self.start, dtype=np.int64),
            end_ns=np.asarray(self.end, dtype=np.int64),
            names=np.asarray(self.names),
        )
        with open(f"{path}.json", "w", encoding="utf-8") as fh:
            json.dump({"spans": self.summary(), "counts": dict(self.counts)}, fh, indent=1, sort_keys=True)
