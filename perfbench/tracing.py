"""Spans around the public calls of ``qgordon``, recorded from outside the package.

``Tracer.installed()`` swaps a timing wrapper in at each place a caller
looks a public name up (``qgordon.cli.count_gordon_partitions``,
``qgordon.ideal_quotient.integer_matrix_rank``, ``BiSeries.__mul__``, ...)
and puts the originals back on exit. Each call becomes a span with a name,
start, end, parent span and run id, plus the work counts named in
``COUNTS``. Spans stay in memory; ``layer_metrics`` reduces one pass's
spans to the per-layer metrics, and the caller writes the spans out.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import os
import time
from collections import Counter, defaultdict


def _multisum_tuples(k: int, i: int, x_order: int, q_order: int) -> int:
    """Tuples N_1 >= ... >= N_k >= 0 the multisum sums over inside the window."""

    def count(pos: int, low: int, m: int, energy: int) -> int:
        if pos == 0:
            return 1
        total, v = 0, low
        # pos counts down from k, so this slot is N_pos; it carries the
        # linear term of the exponent when pos > i
        while True:
            step = v * v + (v if pos > i else 0)
            if m + v > x_order or energy + step > q_order:
                return total
            total += count(pos - 1, v, m + v, energy + step)
            v += 1

    return count(k, 0, 0, 0)


# span name -> counts taken from (arguments by parameter name, result)
# after the call returns
COUNTS = {
    "qcombinat.count_gordon": lambda a, r: {"qcombinat.count_gordon.partitions": r},
    "qcombinat.count_congruence": lambda a, r: {"qcombinat.count_congruence.partitions": r},
    "qcombinat.gordon_product": lambda a, r: {
        "qcombinat.gordon_product.factors": sum(
            map(a["cond"].allows_part, range(1, a["q_order"] + 1))
        )
    },
    "qcombinat.multisum": lambda a, r: {"qcombinat.multisum.tuples": _multisum_tuples(**a)},
    "series.mul": lambda a, r: {"series.mul.calls": 1},
    "selberg.solve": lambda a, r: {
        "selberg.solve.cells": (a["k"] + 1) * (a["x_order"] + 1) * (a["q_order"] + 1)
    },
    "ideal_quotient.rank": lambda a, r: {
        "ideal_quotient.rank.calls": 1,
        "ideal_quotient.rank.rows": len(a["rows"]),
        "ideal_quotient.rank.cols": len(a["rows"][0]) if a["rows"] else 0,
        "ideal_quotient.rank.rank": r,
    },
}

# (module, class or None, attribute, span name): every lookup site a
# workload's calls go through
SITES = [
    ("qgordon.cli", None, "main", "cli.main"),
    ("qgordon.cli", None, "count_gordon_partitions", "qcombinat.count_gordon"),
    ("qgordon.cli", None, "count_congruence_partitions", "qcombinat.count_congruence"),
    ("qgordon.cli", None, "gordon_product", "qcombinat.gordon_product"),
    ("qgordon.qcombinat", None, "gordon_product", "qcombinat.gordon_product"),
    ("qgordon.cli", None, "andrews_gordon_multisum", "qcombinat.multisum"),
    ("qgordon.qcombinat", None, "andrews_gordon_multisum", "qcombinat.multisum"),
    ("qgordon.cli", None, "specialize_x", "series.specialize_x"),
    ("qgordon.series", None, "specialize_x", "series.specialize_x"),
    ("qgordon.series", "BiSeries", "__mul__", "series.mul"),
    ("qgordon.series", "BiSeries", "to_json_dict", "series.to_json"),
    ("qgordon.series", "BiSeries", "from_json_dict", "series.from_json"),
    ("qgordon.cli", None, "solve", "selberg.solve"),
    ("qgordon.selberg", None, "solve", "selberg.solve"),
    ("qgordon.cli", None, "check_recursions", "selberg.check_recursions"),
    ("qgordon.selberg", "RecursionFamily", "to_json_dict", "selberg.family_to_json"),
    ("qgordon.selberg", "RecursionFamily", "from_json_dict", "selberg.family_from_json"),
    ("qgordon.cli", None, "hilbert_table", "ideal_quotient.hilbert_table"),
    ("qgordon.ideal_quotient", None, "hilbert_table", "ideal_quotient.hilbert_table"),
    ("qgordon.ideal_quotient", None, "integer_matrix_rank", "ideal_quotient.rank"),
]

# per-layer metrics: total (inclusive) span time in seconds under these names
SPAN_SECONDS = {
    "qcombinat.count_gordon.s": "qcombinat.count_gordon",
    "qcombinat.count_congruence.s": "qcombinat.count_congruence",
    "qcombinat.gordon_product.s": "qcombinat.gordon_product",
    "qcombinat.multisum.s": "qcombinat.multisum",
    "series.mul.s": "series.mul",
    "series.specialize_x.s": "series.specialize_x",
    "series.to_json.s": "series.to_json",
    "series.from_json.s": "series.from_json",
    "selberg.solve.s": "selberg.solve",
    "selberg.check_recursions.s": "selberg.check_recursions",
    "selberg.family_to_json.s": "selberg.family_to_json",
    "selberg.family_from_json.s": "selberg.family_from_json",
    "ideal_quotient.hilbert_table.s": "ideal_quotient.hilbert_table",
    "ideal_quotient.rank.s": "ideal_quotient.rank",
    "cli.main.s": "cli.main",
}
# per-layer metrics: self time (span time minus child spans)
SELF_SECONDS = {
    "ideal_quotient.span_build.s": "ideal_quotient.hilbert_table",
    "cli.self.s": "cli.main",
}
# per-layer metrics: work counts summed over the pass
COUNT_METRICS = [
    "qcombinat.count_gordon.partitions",
    "qcombinat.count_congruence.partitions",
    "qcombinat.gordon_product.factors",
    "qcombinat.multisum.tuples",
    "series.mul.calls",
    "series.json.bytes",
    "selberg.solve.cells",
    "ideal_quotient.rank.calls",
    "ideal_quotient.rank.rows",
    "ideal_quotient.rank.cols",
    "ideal_quotient.rank.rank",
]


class _CountingJson:
    """Stands in for ``json`` inside ``qgordon.cli``: counts the bytes of
    every document the commands write with ``dumps`` or read with ``load``."""

    def __init__(self, real, tracer: Tracer):
        self._real, self._tracer = real, tracer

    def __getattr__(self, name):
        return getattr(self._real, name)

    def dumps(self, obj, *args, **kwargs):
        text = self._real.dumps(obj, *args, **kwargs)
        self._tracer.counts["series.json.bytes"] += len(text.encode())
        return text

    def load(self, fh, *args, **kwargs):
        obj = self._real.load(fh, *args, **kwargs)
        self._tracer.counts["series.json.bytes"] += os.fstat(fh.fileno()).st_size
        return obj


class Tracer:
    """In-memory span recorder for one pass."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self.run_id = 0
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        count = COUNTS.get(name)
        signature = inspect.signature(fn)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = {
                "id": len(spans),
                "name": name,
                "parent": stack[-1] if stack else None,
                "run": self.run_id,
            }
            spans.append(span)
            stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
            if count is not None:
                span["counts"] = count(signature.bind(*args, **kwargs).arguments, result)
                self.counts.update(span["counts"])
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Swap the wrappers in at every site; restore the originals on exit."""
        saved = []
        try:
            for module_name, class_name, attr, name in SITES:
                module = importlib.import_module(module_name)
                owner = getattr(module, class_name) if class_name else module
                original = owner.__dict__[attr] if class_name else getattr(owner, attr)
                saved.append((owner, attr, original))
                if isinstance(original, classmethod):
                    setattr(owner, attr, classmethod(self.wrap(name, original.__func__)))
                else:
                    setattr(owner, attr, self.wrap(name, original))
            cli = importlib.import_module("qgordon.cli")
            saved.append((cli, "json", cli.json))
            cli.json = _CountingJson(cli.json, self)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def layer_metrics(spans: list[dict], counts: Counter, wall_s: float, stdout_bytes: int) -> dict:
    """Per-layer metrics of one pass from its spans and counts."""
    total: dict = defaultdict(float)
    self_time: dict = defaultdict(float)
    child_time: dict = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    root = 0.0
    for s in spans:
        d = s["end"] - s["start"]
        total[s["name"]] += d
        self_time[s["name"]] += d - child_time[s["id"]]
        if s["parent"] is None:
            root += d
    metrics = {metric: total[name] for metric, name in SPAN_SECONDS.items()}
    metrics.update({metric: self_time[name] for metric, name in SELF_SECONDS.items()})
    metrics.update({metric: counts[metric] for metric in COUNT_METRICS})
    rows = counts["ideal_quotient.rank.rows"]
    metrics["ideal_quotient.rank.useful_ratio"] = counts["ideal_quotient.rank.rank"] / rows if rows else 0.0
    metrics["cli.stdout.bytes"] = stdout_bytes
    # wall time of the pass that no top-level span covers: the benchmark's
    # own comparisons and anything the sites above do not reach
    metrics["other.s"] = wall_s - root
    return metrics
