"""Spans recorded from outside the program, by patching class attributes.

The benchmark never edits the program to time it. It replaces a public
method on its class with a wrapper for the length of one run and puts the
original back afterwards (:func:`patched`, :meth:`Tracer.layers`). Each
wrapped call becomes a span ``(name, start, end, parent)`` kept in memory;
a layer's self time is its spans' durations minus the time covered by
their direct child spans. Spans are recorded only while the tracer is armed, so the
set-up before the first window costs nothing but a flag test.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter
from collections.abc import Callable, Iterator, Sequence
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any

__all__ = ["Layer", "Tracer", "patched"]

#: ``observe(tracer, args, result)``: counts taken at a layer boundary.
Observer = Callable[["Tracer", tuple[Any, ...], Any], None]


@dataclass(frozen=True)
class Layer:
    """One public entry point timed as a named layer."""

    name: str
    owner: type
    attr: str
    observe: Observer | None = None


@contextmanager
def patched(
    owner: type, attr: str, make_wrapper: Callable[[Callable[..., Any]], Any]
) -> Iterator[None]:
    """Replace ``owner.attr`` with ``make_wrapper(original)``; always restore.

    The attribute must be defined on *owner* itself, so restoring puts
    back exactly what was there and never shadows an inherited method.
    """
    original = owner.__dict__[attr]
    setattr(owner, attr, make_wrapper(original))
    try:
        yield
    finally:
        setattr(owner, attr, original)


class Tracer:
    """In-memory span store plus the counters taken at layer boundaries."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        #: ``(name, start, end, parent index or -1)`` per finished span; a
        #: slot is reserved when the span opens so children can point at it.
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.counters: Counter[str] = Counter()
        self.armed = False
        self._open: list[int] = []

    def wrap(
        self, name: str, fn: Callable[..., Any], observe: Observer | None = None
    ) -> Callable[..., Any]:
        """*fn* timed as span *name* whenever the tracer is armed."""
        tracer = self
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not tracer.armed:
                return fn(*args, **kwargs)
            index = len(tracer.spans)
            parent = tracer._open[-1] if tracer._open else -1
            tracer.spans.append(None)
            tracer._open.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                tracer._open.pop()
                tracer.spans[index] = (name, start, end, parent)
            if observe is not None:
                observe(tracer, args, result)
            return result

        return traced

    @contextmanager
    def layers(self, layers: Sequence[Layer]) -> Iterator[None]:
        """Patch every layer's entry point for the block, then restore all."""
        with ExitStack() as stack:
            for layer in layers:
                stack.enter_context(
                    patched(
                        layer.owner,
                        layer.attr,
                        functools.partial(
                            self.wrap, layer.name, observe=layer.observe
                        ),
                    )
                )
            yield

    def self_times(self) -> dict[str, tuple[int, float]]:
        """``name -> (calls, self seconds)`` over all finished spans."""
        spans = [span for span in self.spans if span is not None]
        if len(spans) != len(self.spans):
            raise RuntimeError("self times read while spans are still open")
        covered = [0.0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, tuple[int, float]] = {}
        for (name, start, end, _), child_s in zip(spans, covered):
            calls, self_s = out.get(name, (0, 0.0))
            out[name] = (calls + 1, self_s + (end - start) - child_s)
        return out

    def write(self, path: Path) -> None:
        """Write the spans as JSON lines (times relative to the first)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        spans = [span for span in self.spans if span is not None]
        origin = spans[0][1] if spans else 0.0
        with path.open("w") as out:
            for index, (name, start, end, parent) in enumerate(spans):
                out.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": name,
                            "start_s": start - origin,
                            "end_s": end - origin,
                            "parent": parent,
                        }
                    )
                    + "\n"
                )

