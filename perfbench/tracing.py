"""In-memory spans for the benchmark's traced runs.

A traced run wraps the public entry point of each layer (a module function
or a class method) in a span recorder for the duration of a ``with
Tracer.instrumented(hooks)`` block, and restores the originals afterwards,
so untraced runs execute the program unmodified.  Spans stay in memory —
name, start, end, parent span and request id — and are written out as JSONL
once the benchmark ends.

A span's *self time* is its duration minus the durations of its children;
summed over one request (one timed operation), the self times of every span
add up to the root span's duration, provided the spans nest.
:meth:`Tracer.nesting_errors` checks that they do.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

#: Slack for float rounding when checking that child spans nest in parents.
NESTING_SLACK_S = 1e-6


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    request: Optional[str]
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


#: A hook names a layer and its entry point: ``(layer, owner, attribute)``
#: where ``owner`` is a class (the method is wrapped on the class) or a
#: module (the function is rebound wherever the program imported it).  An
#: optional fourth element is called as ``after(tracer, span, result, args)``
#: once the span has closed.
Hook = Tuple[Any, ...]


class Tracer:
    """Records nested spans of one benchmark process."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._open: List[Span] = []
        self._next_id = 1

    # ------------------------------------------------------------- recording
    @contextmanager
    def span(self, name: str, request: Optional[str] = None, **attrs: Any) -> Iterator[Span]:
        parent = self._open[-1] if self._open else None
        span = Span(
            id=self._next_id,
            name=name,
            start=time.perf_counter(),
            end=0.0,
            parent=parent.id if parent is not None else None,
            request=request if request is not None else (parent.request if parent else None),
            attrs=attrs,
        )
        self._next_id += 1
        self._open.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._open.pop()
            self.spans.append(span)

    def add_tail_child(self, parent: Span, name: str, duration: float, **attrs: Any) -> Span:
        """Record a child measured by the program itself, ending with ``parent``.

        Used where the layer already reports how long part of the call took
        (the simulator's event-loop wall time) but not when it started.
        """
        child = Span(
            id=self._next_id,
            name=name,
            start=parent.end - duration,
            end=parent.end,
            parent=parent.id,
            request=parent.request,
            attrs=attrs,
        )
        self._next_id += 1
        self.spans.append(child)
        return child

    # ------------------------------------------------------- instrumentation
    def _wrapper(self, layer: str, original: Callable, after: Optional[Callable]) -> Callable:
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            with tracer.span(layer) as span:
                result = original(*args, **kwargs)
            if after is not None:
                after(tracer, span, result, args)
            return result

        return traced

    @contextmanager
    def instrumented(self, hooks: Sequence[Hook]) -> Iterator["Tracer"]:
        """Wrap every hook's entry point in a span for the block's duration."""
        restore: List[Tuple[Any, str, Any]] = []
        try:
            for hook in hooks:
                layer, owner, attribute = hook[:3]
                after = hook[3] if len(hook) > 3 else None
                original = owner.__dict__[attribute]
                wrapper = self._wrapper(layer, original, after)
                if isinstance(owner, type):
                    sites = [owner]
                else:
                    # ``from module import f`` copies the binding, so rebind
                    # it in every loaded module of the program that holds it.
                    package = owner.__name__.split(".")[0]
                    sites = [
                        module
                        for name, module in list(sys.modules.items())
                        if name.split(".")[0] == package
                        and getattr(module, "__dict__", {}).get(attribute) is original
                    ]
                for site in sites:
                    restore.append((site, attribute, original))
                    setattr(site, attribute, wrapper)
            yield self
        finally:
            for site, attribute, original in reversed(restore):
                setattr(site, attribute, original)

    # --------------------------------------------------------------- ledger
    def request_spans(self, request: str) -> List[Span]:
        return [span for span in self.spans if span.request == request]

    def self_times(self, request: str) -> Dict[str, float]:
        """Self time per span name over one request."""
        spans = self.request_spans(request)
        covered: Dict[Optional[int], float] = defaultdict(float)
        for span in spans:
            covered[span.parent] += span.duration
        totals: Dict[str, float] = defaultdict(float)
        for span in spans:
            totals[span.name] += span.duration - covered[span.id]
        return dict(totals)

    def counts(self, request: str) -> Dict[str, int]:
        totals: Dict[str, int] = defaultdict(int)
        for span in self.request_spans(request):
            totals[span.name] += 1
        return dict(totals)

    def nesting_errors(self, request: str) -> List[str]:
        """Spans of ``request`` that leave their parent or overlap a sibling."""
        spans = self.request_spans(request)
        by_id = {span.id: span for span in spans}
        children: Dict[Optional[int], List[Span]] = defaultdict(list)
        for span in spans:
            children[span.parent].append(span)
        errors = []
        if len(children[None]) != 1:
            errors.append(f"{request}: {len(children[None])} root spans")
        for parent_id, kids in children.items():
            parent = by_id.get(parent_id)
            kids.sort(key=lambda span: span.start)
            previous_end = None
            for kid in kids:
                if parent is not None and (
                    kid.start < parent.start - NESTING_SLACK_S
                    or kid.end > parent.end + NESTING_SLACK_S
                ):
                    errors.append(f"{kid.name} leaves its parent {parent.name}")
                if previous_end is not None and kid.start < previous_end - NESTING_SLACK_S:
                    errors.append(f"{kid.name} overlaps a sibling span")
                previous_end = kid.end
        return errors

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            for span in sorted(self.spans, key=lambda span: span.start):
                row = {
                    "id": span.id,
                    "name": span.name,
                    "start": span.start,
                    "end": span.end,
                    "parent": span.parent,
                    "request": span.request,
                }
                row.update(span.attrs)
                handle.write(json.dumps(row) + "\n")
