"""Hierarchical span tracer on the simulated clock.

One session produces one **trace tree**: a root span opened by the client,
service-call spans beneath it (a call runs in its caller's process, so
it opens under the caller's current span), and under those the GRAM
submits, GridFTP transfers, splitter passes, engine lifetimes and AIDA
merges.

Because the simulation kernel interleaves many cooperative processes on
one Python thread, a naive "current span" global would leak context
between processes.  :meth:`Tracer.wrap` solves this the way asyncio
contextvars do: it proxies a generator and installs the span as
``current`` only while that generator is actually executing (between a
``send`` and the next ``yield``), restoring the previous span around every
suspension.  Code that runs inside a wrapped generator can therefore call
:meth:`Tracer.child` and always get the right parent, no matter how the
kernel schedules it.

When tracing is disabled, :data:`NULL_TRACER` returns a shared no-op span
and :meth:`NullTracer.wrap` returns the generator unchanged, so the
instrumentation costs one attribute lookup and call per site.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional


class TraceError(Exception):
    """Raised on invalid span operations."""


class Span:
    """A named interval on the simulated clock with a parent link."""

    __slots__ = ("name", "span_id", "parent_id", "start", "end", "attrs", "status", "_tracer")

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        span_id: str,
        parent_id: Optional[str],
        start: float,
        attrs: Dict[str, Any],
    ) -> None:
        self._tracer = tracer
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.start = start
        self.end: Optional[float] = None
        self.attrs = attrs
        self.status = "ok"

    @property
    def finished(self) -> bool:
        """True once the span has an end time."""
        return self.end is not None

    @property
    def duration(self) -> float:
        """Span length in simulated seconds (0 while still open)."""
        if self.end is None:
            return 0.0
        return self.end - self.start

    def set(self, **attrs: Any) -> "Span":
        """Attach (or overwrite) attributes; returns self for chaining."""
        self.attrs.update(attrs)
        return self

    def finish(self, error: Optional[str] = None, **attrs: Any) -> "Span":
        """Close the span at the current simulated time (idempotent)."""
        if attrs:
            self.attrs.update(attrs)
        if error is not None:
            self.status = "error"
            self.attrs.setdefault("error", error)
        if self.end is None:
            self.end = self._tracer.env.now
        return self

    def child(self, name: str, **attrs: Any) -> "Span":
        """Open a new span parented to this one."""
        return self._tracer.start(name, parent=self, **attrs)

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.finish(error=repr(exc) if exc is not None else None)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = f"{self.duration:.3f}s" if self.finished else "open"
        return f"<Span {self.span_id} {self.name!r} {state}>"


class _Activation:
    """Context manager installing a span as the tracer's current."""

    __slots__ = ("_tracer", "_span", "_saved")

    def __init__(self, tracer: "Tracer", span: Optional[Span]) -> None:
        self._tracer = tracer
        self._span = span
        self._saved: Optional[Span] = None

    def __enter__(self) -> Optional[Span]:
        self._saved = self._tracer.current
        self._tracer.current = self._span
        return self._span

    def __exit__(self, exc_type, exc, tb) -> None:
        self._tracer.current = self._saved


class Tracer:
    """Span factory + recorder bound to a simulation environment."""

    enabled = True

    def __init__(self, env) -> None:
        self.env = env
        #: Every span ever started, in start order.
        self.spans: List[Span] = []
        #: The span considered "ambient" for :meth:`child`; managed by
        #: :meth:`activate` / :meth:`wrap`.
        self.current: Optional[Span] = None
        self._seq = 0

    # -- span creation ----------------------------------------------------
    def start(
        self,
        name: str,
        parent: Optional[Span] = None,
        parent_id: Optional[str] = None,
        **attrs: Any,
    ) -> Span:
        """Open a span.  Explicit *parent* wins over *parent_id*; with
        neither, the current span (if any) is the parent."""
        if parent is not None:
            pid: Optional[str] = parent.span_id
        elif parent_id is not None:
            pid = parent_id
        else:
            pid = self.current.span_id if self.current is not None else None
        self._seq += 1
        span = Span(
            self,
            name,
            span_id=f"s{self._seq}",
            parent_id=pid,
            start=self.env.now,
            attrs=dict(attrs),
        )
        self.spans.append(span)
        return span

    def child(self, name: str, **attrs: Any) -> Span:
        """Open a span under the current span (a root span when none)."""
        return self.start(name, **attrs)

    def activate(self, span: Optional[Span]) -> _Activation:
        """Context manager making *span* current for a synchronous block."""
        return _Activation(self, span)

    @property
    def current_id(self) -> Optional[str]:
        """Span id of the current span (the ``trace_parent`` of a call)."""
        return self.current.span_id if self.current is not None else None

    # -- generator context propagation ------------------------------------
    def wrap(
        self, span: Span, gen: Generator, finish: bool = True
    ) -> Generator:
        """Proxy *gen* so *span* is current whenever it executes.

        The proxy forwards every yield/send/throw unchanged, so it is
        transparent to the simulation kernel.  With ``finish=True`` the
        span is closed when the generator returns (or raises, recording
        the error).
        """

        def runner():
            value: Any = None
            error: Optional[BaseException] = None
            while True:
                saved = self.current
                self.current = span
                try:
                    if error is None:
                        target = gen.send(value)
                    else:
                        pending, error = error, None
                        target = gen.throw(pending)
                except StopIteration as stop:
                    if finish:
                        span.finish()
                    return stop.value
                except BaseException as exc:
                    if finish:
                        span.finish(error=repr(exc))
                    raise
                finally:
                    self.current = saved
                try:
                    value = yield target
                except BaseException as exc:  # thrown in while suspended
                    value, error = None, exc

        return runner()

    def trace_gen(
        self,
        name: str,
        gen: Generator,
        parent: Optional[Span] = None,
        parent_id: Optional[str] = None,
        **attrs: Any,
    ) -> Generator:
        """Start a span and wrap *gen* under it in one call."""
        span = self.start(name, parent=parent, parent_id=parent_id, **attrs)
        return self.wrap(span, gen)

    # -- queries ----------------------------------------------------------
    def finished_spans(self) -> List[Span]:
        """Spans with an end time, in start order."""
        return [span for span in self.spans if span.finished]

    def find(self, name: str) -> List[Span]:
        """All spans with the given name, in start order."""
        return [span for span in self.spans if span.name == name]

    def roots(self) -> List[Span]:
        """Spans without a parent, in start order."""
        return [span for span in self.spans if span.parent_id is None]

    def descendant_names(self, root: Span) -> List[str]:
        """Names of every span in *root*'s subtree (excluding the root)."""
        by_parent: Dict[str, List[Span]] = {}
        for span in self.spans:
            if span.parent_id is not None:
                by_parent.setdefault(span.parent_id, []).append(span)
        out: List[str] = []
        stack = [root]
        while stack:
            node = stack.pop()
            for child in by_parent.get(node.span_id, ()):
                out.append(child.name)
                stack.append(child)
        return sorted(out)


class _NullSpan:
    """Shared do-nothing span used when tracing is disabled."""

    __slots__ = ()

    name = "null"
    span_id = ""
    parent_id = None
    start = 0.0
    end = 0.0
    status = "ok"
    attrs: Dict[str, Any] = {}
    finished = True
    duration = 0.0

    def set(self, **attrs: Any) -> "_NullSpan":
        return self

    def finish(self, error: Optional[str] = None, **attrs: Any) -> "_NullSpan":
        return self

    def child(self, name: str, **attrs: Any) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


NULL_SPAN = _NullSpan()


class _NullActivation:
    __slots__ = ()

    def __enter__(self):
        return NULL_SPAN

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


_NULL_ACTIVATION = _NullActivation()


class NullTracer:
    """Tracer stand-in whose every operation is free (or nearly so)."""

    enabled = False
    env = None
    spans: List[Span] = []
    current = None
    current_id = None

    def start(self, name, parent=None, parent_id=None, **attrs) -> _NullSpan:
        return NULL_SPAN

    def child(self, name, **attrs) -> _NullSpan:
        return NULL_SPAN

    def activate(self, span) -> _NullActivation:
        return _NULL_ACTIVATION

    def wrap(self, span, gen, finish: bool = True) -> Generator:
        return gen

    def trace_gen(self, name, gen, parent=None, parent_id=None, **attrs):
        return gen

    def finished_spans(self) -> list:
        return []

    def find(self, name) -> list:
        return []

    def roots(self) -> list:
        return []


NULL_TRACER = NullTracer()
