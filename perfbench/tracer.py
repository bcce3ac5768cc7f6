"""Spans and counters recorded at the package's layer boundaries.

A boundary is wrapped by replacing the module attribute through which the
package looks the function up at call time (``descents.backend.convolve`` is
read by ``perms.algebra_multiply``; ``descents.algebra.algebra_multiply`` by
``oracle_multiply``; ``descents.cosets.ordered_presentation`` by the coset
code), so the package itself is not edited.  Spans (name, start, end,
parent) stay in memory in flat arrays and are written out once, at the end
of the run.
"""

from __future__ import annotations

import json
from array import array
from collections import Counter
from time import perf_counter

#: Per-layer metrics, in the order ``BENCHMARK.json`` lists them.
LAYER_UNITS = {
    "backend.reading_word_counts.calls": "count",
    "backend.reading_word_counts.busy_s": "s",
    "backend.reading_word_counts.tables": "count",
    "backend.reading_word_counts.tables_per_s": "1/s",
    "backend.sum_reading_multinomials.calls": "count",
    "backend.sum_reading_multinomials.busy_s": "s",
    "backend.convolve.calls": "count",
    "backend.convolve.busy_s": "s",
    "backend.convolve.term_pairs": "count",
    "backend.convolve.term_pairs_per_s": "1/s",
    "perms.algebra_multiply.self_s": "s",
    "algebra.to_group_algebra.calls": "count",
    "algebra.to_group_algebra.busy_s": "s",
    "algebra.product_lookups": "count",
    "algebra.product_cache_hit_ratio": "ratio",
    "algebra.element_multiply.self_s": "s",
    "cosets.verify_subset_pair.calls": "count",
    "cosets.verify_subset_pair.self_s": "s",
    "cosets.witnesses": "count",
    "cosets.intersection_table.calls": "count",
    "cosets.intersection_table.busy_s": "s",
    "cosets.predicted_presentation.busy_s": "s",
    "combinatorics.ordered_presentation.calls": "count",
    "combinatorics.ordered_presentation.busy_s": "s",
    "combinatorics.contingency_tables.busy_s": "s",
    "tracing_overhead_s": "s",
}


class Tracer:
    """Records one span per wrapped call; restores every patch on ``remove``."""

    def __init__(self):
        self.names: list[str] = []
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, count=None, materialize: bool = False):
        """``fn`` recording a span per call.  ``count(counts, args, out)``
        adds work counts; ``materialize`` drains a generator inside the
        span so that its work is timed."""
        name_id = len(self.names)
        self.names.append(name)
        name_of, parent, start, end = (self.name_of, self.parent, self.start,
                                       self.end)
        stack, counts = self._stack, self.counts

        def traced(*args, **kwargs):
            i = len(start)
            name_of.append(name_id)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(i)
            start.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
                if materialize:
                    out = list(out)
            finally:
                end[i] = perf_counter()
                stack.pop()
            if count is not None:
                count(counts, args, out)
            return out

        return traced

    def patch(self, module, attr: str, name: str, **kwargs) -> None:
        original = getattr(module, attr)
        self._patched.append((module, attr, original))
        setattr(module, attr, self.wrap(name, original, **kwargs))

    def patch_counter(self, module, attr: str, name: str) -> None:
        """Count calls without a span (for calls too frequent to span)."""
        original = getattr(module, attr)
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        self._patched.append((module, attr, original))
        setattr(module, attr, counted)

    def remove(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def by_name(self) -> dict[str, tuple[int, float, float]]:
        """``name -> (calls, busy seconds, self seconds)``; self time is the
        span minus the time its direct children cover."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        out = {name: [0, 0.0, 0.0] for name in self.names}
        for i in range(n):
            row = out[self.names[self.name_of[i]]]
            row[0] += 1
            row[1] += dur[i]
            row[2] += dur[i] - child[i]
        return {name: tuple(row) for name, row in out.items()}

    def write(self, path, meta: dict) -> None:
        """One JSON header line, then one ``[id, name, start, end, parent]``
        line per span."""
        names = [json.dumps(name) for name in self.names]
        with open(path, "w") as fh:
            fh.write(json.dumps(meta) + "\n")
            for i in range(len(self.start)):
                fh.write(f"[{i},{names[self.name_of[i]]},{self.start[i]!r},"
                         f"{self.end[i]!r},{self.parent[i]}]\n")


def _tables(counts, args, out):
    counts["backend.reading_word_counts.tables"] += sum(out.values())


def _term_pairs(counts, args, out):
    counts["backend.convolve.term_pairs"] += len(args[1]) * len(args[2])


def _witnesses(counts, args, out):
    counts["cosets.witnesses"] += out.witnesses


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics read."""
    from descents import algebra, backend, combinatorics, cosets

    tracer.patch(backend, "reading_word_counts", "backend.reading_word_counts",
                 count=_tables)
    tracer.patch(backend, "sum_reading_multinomials",
                 "backend.sum_reading_multinomials")
    tracer.patch(backend, "convolve", "backend.convolve", count=_term_pairs)
    tracer.patch(algebra, "algebra_multiply", "perms.algebra_multiply")
    tracer.patch(algebra, "to_group_algebra", "algebra.to_group_algebra")
    tracer.patch(algebra, "element_multiply", "algebra.element_multiply")
    tracer.patch_counter(algebra, "_solomon", "algebra.product_lookups")
    tracer.patch(cosets, "verify_subset_pair", "cosets.verify_subset_pair",
                 count=_witnesses)
    tracer.patch(cosets, "intersection_table", "cosets.intersection_table")
    tracer.patch(cosets, "predicted_presentation",
                 "cosets.predicted_presentation")
    tracer.patch(cosets, "ordered_presentation",
                 "combinatorics.ordered_presentation")
    tracer.patch(combinatorics, "contingency_tables",
                 "combinatorics.contingency_tables", materialize=True)


def layer_metrics(tracer: Tracer, overhead_s: float) -> dict[str, float]:
    """Every metric of :data:`LAYER_UNITS` from one traced batch."""
    spans = tracer.by_name()
    counts = tracer.counts

    def calls(name):
        return spans.get(name, (0, 0.0, 0.0))[0]

    def busy(name):
        return spans.get(name, (0, 0.0, 0.0))[1]

    def self_s(name):
        return spans.get(name, (0, 0.0, 0.0))[2]

    def rate(work, seconds):
        return work / seconds if seconds > 0 else 0.0

    rwc, conv = "backend.reading_word_counts", "backend.convolve"
    lookups = counts["algebra.product_lookups"]
    return {
        f"{rwc}.calls": calls(rwc),
        f"{rwc}.busy_s": busy(rwc),
        f"{rwc}.tables": counts[f"{rwc}.tables"],
        f"{rwc}.tables_per_s": rate(counts[f"{rwc}.tables"], busy(rwc)),
        "backend.sum_reading_multinomials.calls":
            calls("backend.sum_reading_multinomials"),
        "backend.sum_reading_multinomials.busy_s":
            busy("backend.sum_reading_multinomials"),
        f"{conv}.calls": calls(conv),
        f"{conv}.busy_s": busy(conv),
        f"{conv}.term_pairs": counts[f"{conv}.term_pairs"],
        f"{conv}.term_pairs_per_s": rate(counts[f"{conv}.term_pairs"],
                                         busy(conv)),
        "perms.algebra_multiply.self_s": self_s("perms.algebra_multiply"),
        "algebra.to_group_algebra.calls": calls("algebra.to_group_algebra"),
        "algebra.to_group_algebra.busy_s": busy("algebra.to_group_algebra"),
        "algebra.product_lookups": lookups,
        # every kernel call comes from a product-cache miss; 0 when the
        # workload makes no lookups
        "algebra.product_cache_hit_ratio":
            1.0 - calls(rwc) / lookups if lookups else 0.0,
        "algebra.element_multiply.self_s": self_s("algebra.element_multiply"),
        "cosets.verify_subset_pair.calls": calls("cosets.verify_subset_pair"),
        "cosets.verify_subset_pair.self_s":
            self_s("cosets.verify_subset_pair"),
        "cosets.witnesses": counts["cosets.witnesses"],
        "cosets.intersection_table.calls": calls("cosets.intersection_table"),
        "cosets.intersection_table.busy_s": busy("cosets.intersection_table"),
        "cosets.predicted_presentation.busy_s":
            busy("cosets.predicted_presentation"),
        "combinatorics.ordered_presentation.calls":
            calls("combinatorics.ordered_presentation"),
        "combinatorics.ordered_presentation.busy_s":
            busy("combinatorics.ordered_presentation"),
        "combinatorics.contingency_tables.busy_s":
            busy("combinatorics.contingency_tables"),
        "tracing_overhead_s": overhead_s,
    }
