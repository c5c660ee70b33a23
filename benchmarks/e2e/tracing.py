"""Span recorder for the traced repetition, kept entirely outside ``src/``.

``install(tracer)`` wraps the public entry points of every layer (and
``Environment.process``) for the duration of one repetition;
``uninstall`` puts the originals back.  Nothing here runs in the
untraced repetitions that produce the end-to-end metrics.

A span is ``{name, layer, session, parent, host_start, host_end,
sim_start, sim_end}`` plus its host *self* time.  The program is
single-threaded, so the current span is one pointer: entering a span
charges the host time elapsed since the last switch to the span that was
current, which makes self times exclusive by construction and lets
simulated waiting cost nothing -- a generator's span is only current
while the generator is actually being resumed.  Every simulation process
is itself a span (``proc:<function>``) whose layer is the module its
generator was defined in, and whose parent is the span that was current
when ``Environment.process`` was called, so causality survives the hop
through the event queue.
"""

from __future__ import annotations

import json
import sys
import time
from typing import Callable, Dict, List, Optional

from repro.sim.kernel import Environment, Event

# Path fragment (under src/repro/) -> layer.  First match wins.
LAYER_OF_PATH = [
    ("sim/", "sim"),
    ("services/envelope", "envelope"),
    ("services/container", "container"),
    ("services/aida_manager", "merge"),
    ("services/combiner", "merge"),
    ("aida/", "aida"),
    ("engine/", "engine"),
    ("analysis/", "engine"),
    ("dataset/", "dataset"),
    ("services/content", "dataset"),
    ("grid/transfer", "transfer"),
    ("grid/network", "network"),
    ("services/splitter", "splitter"),
    ("replica/", "replica"),
    ("grid/admission", "admission"),
    ("grid/scheduler", "scheduler"),
    ("grid/gram", "gram"),
    ("grid/security", "security"),
    ("grid/nodes", "nodes"),
    ("federation/broker", "broker"),
    ("federation/", "federation"),
    ("services/session", "session"),
    ("services/control", "session"),
    ("services/codeloader", "codeloader"),
    ("services/registry", "registry"),
    ("resilience/heartbeat", "heartbeat"),
    ("resilience/journal", "journal"),
    ("resilience/checkpoint", "checkpoint"),
    ("resilience/", "recovery"),
    ("client/", "client"),
    ("benchmarks/e2e/", "client"),  # the harness's session drivers *are* the clients
]


def layer_of_file(filename: str) -> str:
    path = filename.replace("\\", "/")
    marker = path.rfind("/src/repro/")
    if marker >= 0:
        tail = path[marker + len("/src/repro/"):]
    elif "/benchmarks/e2e/" in path:
        tail = "benchmarks/e2e/"
    else:
        return "unattributed"
    for fragment, layer in LAYER_OF_PATH:
        if tail.startswith(fragment):
            return layer
    return "unattributed"


class Span:
    __slots__ = (
        "id", "name", "layer", "session", "parent", "host_start", "host_end",
        "sim_start", "sim_end", "self_s", "tag",
    )

    def as_dict(self) -> dict:
        return {slot: getattr(self, slot) for slot in self.__slots__}


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._open: Dict[int, Span] = {}
        self._next_id = 1
        self._layer_cache: Dict[object, str] = {}
        self.env: Optional[Environment] = None
        #: Session index the next ``Environment.process`` call belongs to
        #: (set by the harness around the call that starts a session driver).
        self.session_hint = None
        self.processes_started = 0
        self.clock = time.perf_counter
        self._last = self.clock()
        # Root span: the step loop itself.  Whatever host time no other
        # span claims is kernel time (heap, callbacks, event dispatch).
        self.root = self._new("sim.kernel", "sim", None, None)
        self.cur: Span = self.root

    # -- span lifecycle ------------------------------------------------
    def _now_sim(self) -> float:
        return self.env._now if self.env is not None else 0.0

    def _new(self, name: str, layer: str, parent: Optional[Span], session) -> Span:
        span = Span()
        span.id = self._next_id
        self._next_id += 1
        span.name = name
        span.layer = layer
        span.parent = parent.id if parent is not None else None
        span.session = session if session is not None else (
            parent.session if parent is not None else None
        )
        span.host_start = self.clock()
        span.host_end = None
        span.sim_start = self._now_sim()
        span.sim_end = None
        span.self_s = 0.0
        span.tag = None
        self._open[span.id] = span
        return span

    def start(self, name: str, layer: str, session=None) -> Span:
        return self._new(name, layer, self.cur, session)

    def finish(self, span: Span) -> None:
        if span.host_end is None:
            span.host_end = self.clock()
            span.sim_end = self._now_sim()
            del self._open[span.id]
            self.spans.append(span)

    def enter(self, span: Span) -> Span:
        """Make *span* current; returns the span to hand back to ``exit``."""
        now = self.clock()
        prev = self.cur
        prev.self_s += now - self._last
        self._last = now
        self.cur = span
        return prev

    def exit(self, prev: Span) -> None:
        now = self.clock()
        self.cur.self_s += now - self._last
        self._last = now
        self.cur = prev

    def begin_region(self, env: Environment) -> None:
        """Bind the sim clock; the first call also starts host accounting.

        Spans opened while the workload was being built keep their
        identity (they are the parents of everything that follows) but
        the host time they cost is set-up, not timed region.
        """
        if self.env is None:
            for span in self._open.values():
                span.self_s = 0.0
            for span in self.spans:
                span.self_s = 0.0
            self._last = self.clock()
        self.env = env

    def end(self) -> None:
        """Charge the tail to the current span and close everything open."""
        now = self.clock()
        self.cur.self_s += now - self._last
        self._last = now
        for span in list(self._open.values()):
            self.finish(span)

    def layer_of_generator(self, gen) -> str:
        code = getattr(gen, "gi_code", None)
        if code is None:
            return "unattributed"
        layer = self._layer_cache.get(code)
        if layer is None:
            layer = self._layer_cache[code] = layer_of_file(code.co_filename)
        return layer

    def write(self, path: str) -> None:
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(span.as_dict()) + "\n")


# -- proxies -----------------------------------------------------------


def _resume_under(tracer: Tracer, span: Span, gen, tag: Optional[Callable] = None):
    """Generator proxy: *span* is current exactly while *gen* is being resumed.

    *tag(return value)* labels the span when the generator returns.
    """
    value = None
    pending: Optional[BaseException] = None
    enter, exit_ = tracer.enter, tracer.exit
    try:
        while True:
            prev = enter(span)
            try:
                if pending is None:
                    item = gen.send(value)
                else:
                    exc, pending = pending, None
                    item = gen.throw(exc)
            except StopIteration as stop:
                if tag is not None:
                    span.tag = tag(stop.value)
                return stop.value
            finally:
                exit_(prev)
            try:
                value = yield item
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:  # forwarded into the wrapped generator
                pending = exc
    except BaseException as exc:
        if span.tag is None and not isinstance(exc, GeneratorExit):
            span.tag = "error:" + type(exc).__name__
        raise
    finally:
        tracer.finish(span)


_PROXY_CODE = _resume_under.__code__


def _is_generator(obj) -> bool:
    return getattr(obj, "gi_code", None) is not None


def wrap(tracer: Tracer, func: Callable, name: str, layer: str,
         session: Optional[Callable] = None, tag: Optional[Callable] = None,
         reentrant: bool = True) -> Callable:
    """Wrap *func* so each call is a span.

    A generator result is proxied (the span ends when it does); a
    returned simulation ``Process`` ends the span when it is processed;
    anything else ends it on return.  *session(args, kwargs)* and
    *tag(args, kwargs, result)* are optional extractors; *result* is the
    final value (a generator's return value, a process's value).  With
    ``reentrant=False`` nested calls (recursion) run unwrapped.
    """
    depth = [0]

    def traced(*args, **kwargs):
        if not reentrant and depth[0]:
            return func(*args, **kwargs)
        span = tracer.start(name, layer, session(args, kwargs) if session else None)
        prev = tracer.enter(span)
        depth[0] += 1
        try:
            result = func(*args, **kwargs)
        except BaseException as exc:
            span.tag = "error:" + type(exc).__name__
            depth[0] -= 1
            tracer.exit(prev)
            tracer.finish(span)
            raise
        depth[0] -= 1
        tracer.exit(prev)
        label = (lambda value: tag(args, kwargs, value)) if tag is not None else None
        if _is_generator(result):
            return _resume_under(tracer, span, result, label)
        if isinstance(result, Event) and result.callbacks is not None:

            def done(event):
                if not event._ok:
                    span.tag = "error:" + type(event._value).__name__
                elif label is not None:
                    span.tag = label(event._value)
                tracer.finish(span)

            result.callbacks.append(done)
            return result
        if label is not None:
            span.tag = label(result)
        tracer.finish(span)
        return result

    traced.__wrapped__ = func
    traced.__name__ = getattr(func, "__name__", name)
    return traced


# -- what gets wrapped ---------------------------------------------------


def _first_arg(index: int) -> Callable:
    return lambda args, kwargs: args[index] if len(args) > index else None


def _targets():
    """(owner, attribute, span name, layer, extra wrap() kwargs) for every entry point."""
    from repro.aida import codec
    from repro.aida.tree import ObjectTree
    from repro.client.client import IPAClient
    from repro.dataset.generator import ILCEventGenerator
    from repro.engine.engine import AnalysisEngine
    from repro.engine.sandbox import CodeBundle
    from repro.federation.broker import SessionBroker
    from repro.federation.client import FederatedClient
    from repro.federation.policy import ReplicationPolicy
    from repro.grid import network, security
    from repro.grid.admission import AdmissionController
    from repro.grid.gram import GramGatekeeper
    from repro.grid.scheduler import BatchScheduler
    from repro.grid.transfer import GridFTPService
    from repro.replica.manager import ReplicaManager
    from repro.resilience.checkpoint import CheckpointStore
    from repro.resilience.journal import DurableStore, SessionJournal
    from repro.services.aida_manager import AIDAManagerService
    from repro.services.combiner import MergeTree
    from repro.services.container import AsyncServiceContainer
    from repro.services.content import ContentStore
    from repro.services.envelope import ServiceContainer
    from repro.services.registry import WorkerRegistryService
    from repro.services.session import SessionService
    from repro.services.splitter import SplitterService

    sid = _first_arg(1)  # methods taking session_id right after self
    out = [
        (ServiceContainer, "call", "envelope.call", "envelope",
         dict(tag=lambda a, k, r: f"{a[1]}.{a[2]}")),
        (AsyncServiceContainer, "_admit", "container.admit", "container", {}),
        (AIDAManagerService, "submit_snapshot", "merge.submit_snapshot", "merge",
         dict(session=sid, tag=lambda a, k, r: r)),
        (AIDAManagerService, "merged", "merge.merged", "merge", dict(session=sid)),
        (MergeTree, "ingest", "merge.ingest", "merge", {}),
        (MergeTree, "refold", "merge.refold", "merge", {}),
        (AnalysisEngine, "process_chunk", "engine.process_chunk", "engine",
         dict(tag=lambda a, k, r: r.events)),
        (AnalysisEngine, "take_snapshot", "engine.take_snapshot", "engine", {}),
        (CodeBundle, "instantiate", "engine.instantiate", "engine", {}),
        (ContentStore, "events_for", "dataset.events_for", "dataset", {}),
        (ILCEventGenerator, "generate", "dataset.generate", "dataset",
         dict(tag=lambda a, k, r: len(r))),
        (ObjectTree, "to_dict", "aida.to_dict", "aida", {}),
        (GridFTPService, "transfer_file", "transfer.transfer_file", "transfer",
         dict(tag=lambda a, k, r: a[4] if len(a) > 4 else k.get("size_mb"))),
        (GridFTPService, "third_party", "transfer.third_party", "transfer",
         dict(tag=lambda a, k, r: a[4] if len(a) > 4 else k.get("size_mb"))),
        (GridFTPService, "scatter", "transfer.scatter", "transfer",
         dict(tag=lambda a, k, r: sum(part[1] for part in (a[3] if len(a) > 3 else k["parts"])))),
        (SplitterService, "split_and_scatter", "splitter.split_and_scatter", "splitter", {}),
        (AdmissionController, "acquire", "admission.acquire", "admission", {}),
        (BatchScheduler, "submit", "scheduler.submit", "scheduler", {}),
        (GramGatekeeper, "submit", "gram.submit", "gram", {}),
        (ReplicaManager, "plan_sources", "replica.plan_sources", "replica", {}),
        (SessionBroker, "rank", "broker.rank", "broker", {}),
        (ReplicationPolicy, "ensure_resident", "federation.ensure_resident", "federation",
         dict(tag=lambda a, k, r: r)),
        (SessionJournal, "append", "journal.append", "journal", {}),
        (DurableStore, "append", "journal.store_append", "journal",
         dict(tag=lambda a, k, r: (a[1], len(a[2])))),
        (CheckpointStore, "write", "checkpoint.write", "checkpoint", {}),
        (WorkerRegistryService, "heartbeat", "registry.heartbeat", "registry", dict(session=sid)),
        (SessionService, "recover", "recovery.recover", "recovery", {}),
        (SessionService, "resync_engines", "merge.resync_engines", "session",
         dict(session=sid, tag=lambda a, k, r: len(a[2]))),
    ]
    for op in ("connect", "select_dataset", "upload_code", "run", "poll", "status", "close"):
        out.append((IPAClient, op, f"client.{op}", "client", {}))
        out.append((FederatedClient, op, f"client.{op}", "federation", {}))
    # Module-level functions are looked up through whichever module
    # imported them, so every importer's binding is patched.
    out.append((codec, "payload_nbytes", "aida.payload_nbytes", "aida", dict(reentrant=False, tag=lambda a, k, r: r)))
    out.append((network, "maxmin_allocate", "network.maxmin", "network", {}))
    out.append((security, "mutual_authenticate", "security.mutual_authenticate", "security", {}))
    return out


def install(tracer: Tracer) -> Callable[[], None]:
    """Patch every target; returns the function that undoes it."""
    undo: List[Callable[[], None]] = []

    def patch(owner, attr, replacement):
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, replacement)
        undo.append(lambda: setattr(owner, attr, original))

    for owner, attr, name, layer, options in _targets():
        original = getattr(owner, attr)
        traced = wrap(tracer, original, name, layer, **options)
        if isinstance(owner, type):
            patch(owner, attr, traced)
            continue
        for module in list(sys.modules.values()):
            if module is not None and getattr(module, "__name__", "").startswith("repro"):
                if module.__dict__.get(attr) is original:
                    patch(module, attr, traced)

    # classmethod: wrap the underlying function, keep the binding behaviour
    from repro.aida.tree import ObjectTree

    raw = ObjectTree.__dict__["from_dict"]
    patch(ObjectTree, "from_dict",
          classmethod(wrap(tracer, raw.__func__, "aida.from_dict", "aida")))

    original_process = Environment.process

    def process(env, generator):
        tracer.processes_started += 1
        if getattr(generator, "gi_code", None) is not _PROXY_CODE:
            name = getattr(generator, "__name__", "process")
            span = tracer.start(
                "proc:" + name, tracer.layer_of_generator(generator), tracer.session_hint
            )
            generator = _resume_under(tracer, span, generator)
        return original_process(env, generator)

    patch(Environment, "process", process)

    def uninstall() -> None:
        while undo:
            undo.pop()()

    return uninstall

