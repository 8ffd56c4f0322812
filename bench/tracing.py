"""In-memory spans around the pipeline's public functions.

The traced run replaces the names the pipeline looks up at call time
(module attributes of ``tsnet.cli``, ``tsnet.report`` and
``tsnet.netstats``) with wrappers that record a span, and puts the
originals back afterwards.  Nothing under ``src/`` is edited.  A name a
module no longer has is skipped, so its layer reads zero.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


def _graph_attrs(args, kwargs, out):
    return {"k": int(out.n), "m": int(out.m)}


def _apsp_attrs(args, kwargs, out):
    g = args[0] if args else kwargs["g"]
    return {"k": int(g.n), "m": int(g.m)}


def _clustering_attrs(args, kwargs, out):
    g = args[0] if args else kwargs["g"]
    return {"m": int(g.m)}


def _rows_attrs(args, kwargs, out):
    return {"rows": int(out.n)}


def _dfa_attrs(args, kwargs, out):
    # windows fitted: each scale s splits n samples from the front and the back
    n = (args[0] if args else kwargs["ts"]).n
    return {"windows": int(sum(2 * (n // int(s)) for s in out.scales))}


def _json_attrs(args, kwargs, out):
    return {"bytes": len(out.encode("utf-8"))}


def targets(cli, report, netstats):
    """(module, attribute, span name, attribute extractor) to wrap."""
    return [
        (cli, "from_csv", "series.from_csv", _rows_attrs),
        (cli, "build_report", "report.build_report", None),
        (cli, "canonical_json", "report.canonical_json", _json_attrs),
        (report, "summary", "series.summary", None),
        (report, "estimate_hurst", "dfa.estimate_hurst", _dfa_attrs),
        (report, "build_fast", "visibility.build_fast", _graph_attrs),
        (report, "degree_distribution", "netstats.degree_distribution", None),
        (report, "fit_powerlaw_tail", "netstats.fit_powerlaw_tail", None),
        (report, "clustering", "netstats.clustering", _clustering_attrs),
        (report, "assortativity", "netstats.assortativity", None),
        (report, "small_world_curve", "netstats.small_world_curve", None),
        (report, "all_pairs_average_path", "netstats.all_pairs_average_path", _apsp_attrs),
        (netstats, "build_fast", "visibility.build_fast", _graph_attrs),
        (netstats, "all_pairs_average_path", "netstats.all_pairs_average_path", _apsp_attrs),
    ]


class Tracer:
    """Spans as dicts: name, start, end, parent index, op id, attributes."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.op = None

    @contextmanager
    def span(self, name: str):
        record = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "op": self.op,
        }
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name, fn, attrs):
        def traced(*args, **kwargs):
            with self.span(name) as record:
                out = fn(*args, **kwargs)
            if attrs is not None:
                try:
                    record.update(attrs(args, kwargs, out))
                except (AttributeError, KeyError, IndexError, TypeError) as exc:
                    # the pipeline's types changed; keep the op, drop the counter
                    record["attrs_error"] = repr(exc)
            return out

        return traced

    @contextmanager
    def patched(self, wrap_targets):
        saved = []
        try:
            for module, attr, name, attrs in wrap_targets:
                if hasattr(module, attr):
                    original = getattr(module, attr)
                    saved.append((module, attr, original))
                    setattr(module, attr, self.wrap(name, original, attrs))
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def self_times(spans: list[dict]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own
