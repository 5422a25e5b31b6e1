"""Spans around the public functions of each permdiff module.

The benchmark installs the wrappers for its traced pass only and removes them
afterwards.  A module-level function is rebound at every name that holds it in
any loaded ``permdiff`` module, because several are imported by name into
other modules (``derived_product`` into ``exprs`` and ``spans``,
``apply_substitution`` into ``reduction``, ``format_poly`` into ``cli`` and
``spans``) and calls through those names would otherwise escape the trace.
Methods are wrapped once, on their class.

Spans stay in memory as (name, start, end, parent) until the run ends.  A
span's self time is its duration minus the durations of its child spans;
wrapped calls nest strictly, so children never overlap.  A wrapper stamps
its start before and its end after all of its own bookkeeping, counters
included, so that bookkeeping is charged to the wrapped call's self time and
not to its caller's.

Each target declares the extra counts it reports next to the function that
computes them; ``Tracer.layer_metrics`` reports every declared count, 0 when
the target was never called.

``trace.overhead_s`` is the tracer's own cost in a traced run: the spans
recorded, each times the cost a wrapper adds to one call, measured on a
no-op in the same process.  The difference between a traced and an untraced
pass would be the direct measure, but on a shared host two passes differ by
more than the tracer costs.
"""

from __future__ import annotations

import json
import sys
from array import array
from pathlib import Path
from time import perf_counter
from typing import Callable


def _len_result(args, result) -> tuple[int, ...]:
    return (len(result),)


def _count_add(args, result) -> tuple[int, ...]:
    return (len(args[1]), int(result))


def _count_reduce(args, result) -> tuple[int, ...]:
    return (len(result.trace), max(len(s.poly) for s in result.trace))


def _count_verify(args, result) -> tuple[int, ...]:
    return (result.total_checks,)


# Metric prefix, module, attribute (``Class.method`` for methods), the names
# of its extra counts, and the function that computes them from the call's
# arguments and result, in the same order.  A count named ``peak_*`` keeps
# the maximum; the others add up.  ``cli.main.stdout_bytes`` is fed by
# ``Tracer.count_stdout``, since ``main`` returns only an exit code.
TARGETS: tuple[tuple[str, str, str, tuple[str, ...], Callable | None],
               ...] = (
    ("spans.add", "permdiff.spans", "SpanBasis.add",
     ("terms_in", "accepted"), _count_add),
    ("spans.contains", "permdiff.spans", "SpanBasis.contains", (), None),
    ("spans.generate_closure", "permdiff.spans", "generate_closure", (),
     None),
    ("spans.generate_S", "permdiff.spans", "generate_S", (), None),
    ("spans.verify_dimension", "permdiff.spans", "verify_dimension", (),
     None),
    ("algebra.mul", "permdiff.algebra", "DiffPermPoly.__mul__",
     ("terms_out",), _len_result),
    ("algebra.derive", "permdiff.algebra", "DiffPermPoly.derive",
     ("terms_out",), _len_result),
    ("algebra.star", "permdiff.algebra", "DiffPermPoly.star", (), None),
    ("algebra.derived_product", "permdiff.algebra", "derived_product", (),
     None),
    ("algebra.apply_substitution", "permdiff.algebra", "apply_substitution",
     (), None),
    ("algebra.format_poly", "permdiff.algebra", "format_poly", (), None),
    ("exprs.eval_expr", "permdiff.exprs", "eval_expr", (), None),
    ("exprs.eval_delta", "permdiff.exprs", "eval_delta", (), None),
    ("exprs.check_identity", "permdiff.exprs", "check_identity", (), None),
    ("exprs.run_suite", "permdiff.exprs", "run_suite", (), None),
    ("reduction.reduce_identity", "permdiff.reduction", "reduce_identity",
     ("trace_steps", "peak_terms"), _count_reduce),
    ("reduction.h0", "permdiff.reduction", "h0", (), None),
    ("reduction.h_step", "permdiff.reduction", "h_step", (), None),
    ("reduction.multiset_normal_form", "permdiff.reduction",
     "multiset_normal_form", (), None),
    ("witt.lie_bracket", "permdiff.witt", "lie_bracket", (), None),
    ("witt.leibniz_bracket", "permdiff.witt", "leibniz_bracket", (), None),
    ("witt.structure_table", "permdiff.witt", "structure_table", (), None),
    ("witt.verify_tables", "permdiff.witt", "verify_tables", ("checks",),
     _count_verify),
    ("cli.main", "permdiff.cli", "main", ("stdout_bytes",), None),
    ("cli.parse_expr", "permdiff.cli", "parse_expr", (), None),
)
STDOUT_BYTES = "cli.main.stdout_bytes"


class Tracer:
    """Records a span per call of each wrapped function."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.counts: dict[str, int] = {}
        self.counted: set[int] = set()  # ids of names that have a counter
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def count_stdout(self, text: str) -> None:
        """Add the UTF-8 size of one job's stdout to ``STDOUT_BYTES``."""
        self.counts[STDOUT_BYTES] = (self.counts.get(STDOUT_BYTES, 0)
                                     + len(text.encode("utf-8")))

    def wrap(self, name: str, fn: Callable, stats: tuple[str, ...] = (),
             counter: Callable | None = None) -> Callable:
        """``fn`` wrapped to record a span per call under ``name`` and to
        add the ``stats`` that ``counter`` computes from each call's
        arguments and result."""
        nid = len(self.names)
        self.names.append(name)
        name_ids, parents = self.name_ids, self.parents
        starts, ends, stack = self.starts, self.ends, self._stack
        counts = self.counts
        keys = tuple(f"{name}.{stat}" for stat in stats)
        peaks = tuple(stat.startswith("peak_") for stat in stats)
        for key in keys:
            counts.setdefault(key, 0)
        if counter is not None:
            self.counted.add(nid)

        def traced(*args, **kwargs):
            start = perf_counter()
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            starts.append(start)
            ends.append(0.0)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
                if counter is not None:
                    for key, peak, amount in zip(keys, peaks,
                                                 counter(args, result)):
                        counts[key] = (max(counts[key], amount) if peak
                                       else counts[key] + amount)
            finally:
                stack.pop()
                ends[idx] = perf_counter()
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every target at every binding in the loaded permdiff
        modules."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "permdiff"
                                         or n.startswith("permdiff."))]
        for name, module, attr, stats, counter in TARGETS:
            owner = sys.modules[module]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                self._patch(cls, meth,
                            self.wrap(name, original, stats, counter))
                continue
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original, stats, counter)
            for mod in modules:
                for binding, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, binding, wrapper)

    def _patch(self, owner, attr: str, wrapper: Callable) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every binding that ``install`` replaced."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def self_times(self) -> list[float]:
        """Per span: its duration minus the durations of its children."""
        n = len(self.starts)
        child = [0.0] * n
        own = [0.0] * n
        starts, ends, parents = self.starts, self.ends, self.parents
        # children are recorded after their parent, so walk backwards
        for i in range(n - 1, -1, -1):
            dur = ends[i] - starts[i]
            own[i] = dur - child[i]
            if parents[i] >= 0:
                child[parents[i]] += dur
        return own

    def layer_metrics(self) -> dict[str, float]:
        """``<layer>.<function>.calls`` and ``.self_s`` for every wrapped
        function, called or not, and its declared counts.  The accepted
        count of ``spans.add`` is reported as ``accept_ratio``, accepted
        vectors over calls."""
        calls = dict.fromkeys(self.names, 0)
        self_s = dict.fromkeys(self.names, 0.0)
        for nid, own in zip(self.name_ids, self.self_times()):
            name = self.names[nid]
            calls[name] += 1
            self_s[name] += own
        out: dict[str, float] = {}
        for name in self.names:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        out.update(self.counts)
        if "spans.add.accepted" in out:
            accepted = out.pop("spans.add.accepted")
            n = out["spans.add.calls"]
            out["spans.add.accept_ratio"] = accepted / n if n else 0.0
        counted = sum(calls[self.names[nid]] for nid in self.counted)
        plain_cost, counted_cost = wrapper_costs()
        out["trace.overhead_s"] = ((len(self.starts) - counted) * plain_cost
                                   + counted * counted_cost)
        return out

    def dump(self, path: Path) -> None:
        """Write the spans as JSON: names, and [name id, start, end, parent
        index] per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        spans = [list(s) for s in zip(self.name_ids, self.starts, self.ends,
                                      self.parents)]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": spans}, fh,
                      separators=(",", ":"))


def wrapper_costs(calls: int = 20000, repeats: int = 5
                  ) -> tuple[float, float]:
    """Seconds a wrapper adds to one call, without and with a one-count
    counter: per call, the fastest of ``repeats`` timings of ``calls`` calls
    of a wrapped no-op minus the same for the bare no-op."""
    def noop():
        return 0

    def fastest(fn: Callable) -> float:
        times = []
        for _ in range(repeats):
            start = perf_counter()
            for _ in range(calls):
                fn()
            times.append(perf_counter() - start)
        return min(times)

    bare = fastest(noop)
    tracer = Tracer()
    plain = tracer.wrap("plain", noop)
    counted = tracer.wrap("counted", noop, ("n",), lambda args, result: (1,))
    return (max(0.0, (fastest(plain) - bare) / calls),
            max(0.0, (fastest(counted) - bare) / calls))
