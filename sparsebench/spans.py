"""In-memory spans recorded around calls into sparselab's public functions.

The tracer replaces a module attribute with a wrapper that records a span
(name, start, end, parent span) and, when the call returns or raises,
work counts read from its return value or exception.  Callers that look
the attribute up at call time (``report.lasso_path``,
``properties.unique_sparsest``, ``files.write_csv``) go through the
wrapper; nothing inside the program changes.  Spans stay in memory and
are written out once, when the traced process ends.
"""

from __future__ import annotations

import functools
import json
import time


class Tracer:
    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def wrap(self, owner, attr: str, name: str, counts=None) -> None:
        """Route ``owner.attr`` through a span named ``name``.

        ``counts(result, exc, args, kwargs)`` returns a dict of work
        counts for the span; ``exc`` is the raised exception or None.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = {
                "trace": tracer.trace_id,
                "id": len(tracer.spans),
                "parent": tracer._stack[-1] if tracer._stack else None,
                "name": name,
                "counts": {},
            }
            tracer.spans.append(span)
            tracer._stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            except Exception as exc:
                span["end"] = time.perf_counter()
                span["error"] = f"{type(exc).__name__}: {exc}"
                if counts is not None:
                    span["counts"] = counts(None, exc, args, kwargs)
                raise
            finally:
                tracer._stack.pop()
            span["end"] = time.perf_counter()
            if counts is not None:
                span["counts"] = counts(result, None, args, kwargs)
            return result

        setattr(owner, attr, traced)

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.spans, handle)


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span duration minus the time its direct child spans cover."""
    own = {span["id"]: span["end"] - span["start"] for span in spans}
    for span in spans:
        if span["parent"] is not None:
            own[span["parent"]] -= span["end"] - span["start"]
    return own
