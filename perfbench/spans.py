"""In-memory spans recorded around calls into the wqkd package.

Spans are recorded only from the benchmark's side: public functions are
wrapped by reassigning the module attribute they are looked up through, so
the package itself is never edited.  A span has a name, start and end
(``time.perf_counter`` seconds), the span that was open when it started, the
benchmark operation (request) it belongs to, and a few attributes taken from
the call's arguments or result.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable


@dataclass(eq=False)
class Span:
    idx: int
    name: str
    start: float
    parent: int | None
    op: int | None
    attrs: dict[str, Any] = field(default_factory=dict)
    end: float = 0.0

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []
        self.op: int | None = None  # id of the benchmark operation in progress

    @contextmanager
    def span(self, name: str, **attrs: Any):
        parent = self._open[-1] if self._open else None
        s = Span(len(self.spans), name, time.perf_counter(), parent, self.op, attrs)
        self.spans.append(s)
        self._open.append(s.idx)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._open.pop()

    def traced(
        self,
        fn: Callable,
        name: str,
        on_call: Callable[..., dict] | None = None,
        on_result: Callable[[Any], dict] | None = None,
    ) -> Callable:
        """``fn`` wrapped so that each call records one span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name, **(on_call(*args, **kwargs) if on_call else {})) as s:
                result = fn(*args, **kwargs)
                if on_result:
                    s.attrs.update(on_result(result))
            return result

        return wrapper

    def wrap(self, owner: Any, attr: str, name: str, **hooks: Callable) -> None:
        """Replace ``owner.attr`` by its traced wrapper."""
        setattr(owner, attr, self.traced(getattr(owner, attr), name, **hooks))

    # -- queries ---------------------------------------------------------------

    def named(self, name: str, within: Span | None = None) -> list[Span]:
        return [
            s for s in self.spans
            if s.name == name and (within is None or within.start <= s.start <= within.end)
        ]

    def self_ms(self, span: Span) -> float:
        """Duration minus the part covered by the span's direct children."""
        return span.ms - sum(s.ms for s in self.spans if s.parent == span.idx)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for s in self.spans:
                row = {"id": s.idx, "name": s.name, "start": s.start, "end": s.end,
                       "parent": s.parent, "op": s.op, "attrs": s.attrs}
                fh.write(json.dumps(row, default=str) + "\n")
