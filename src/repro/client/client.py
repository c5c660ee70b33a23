"""IPAClient: the user-facing facade over the whole workflow of Fig. 2.

Every method that talks to the site is a *generator operation* meant to be
driven inside the simulation::

    def scenario(site, client):
        yield from client.obtain_proxy_and_connect()
        yield from client.select_dataset("ilc-zh-500gev")
        yield from client.upload_code(bundle)
        yield from client.run()
        tree, progress = yield from client.wait_for_completion()
        ...

    site.env.run(until=site.env.process(scenario(site, client)))
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.aida.tree import ObjectTree
from repro.client.plugins import (
    DatasetCatalogPlugin,
    GridProxyPlugin,
    RemoteDataPlugin,
)
from repro.engine.controls import Command
from repro.engine.sandbox import CodeBundle
from repro.grid.security import Credential
from repro.resilience.faults import ServiceUnavailable
from repro.resilience.retry import RetryPolicy
from repro.services.aida_manager import MergeProgress
from repro.services.envelope import Fault, RetryAfter
from repro.services.session import SessionInfo, StagedDataset

#: Default backoff for :meth:`IPAClient.reconnect`: ~8 attempts over a few
#: minutes, matching how long a manager-node service restart takes.
RECONNECT_POLICY = RetryPolicy(
    max_attempts=8, base_delay=0.5, multiplier=2.0, max_delay=30.0
)


class ClientError(Exception):
    """Raised on client-side workflow mistakes (e.g. no session yet)."""


@dataclass(frozen=True)
class PollResult:
    """One poll of the AIDA manager: merged results plus progress."""

    tree: ObjectTree
    progress: MergeProgress


class IPAClient:
    """Headless analysis client bound to one simulated grid site.

    Parameters
    ----------
    site:
        The :class:`~repro.core.site.GridSite` to talk to.
    credential:
        The user's identity credential (from
        :meth:`~repro.core.site.GridSite.enroll_user`).
    client_id:
        Name this client presents to the manager's poll-coalescing
        layer (per-client sequence cursors).  Defaults to the
        credential's subject, which is unique per enrolled user.
    """

    def __init__(
        self, site, credential: Credential, client_id: Optional[str] = None
    ) -> None:
        self.site = site
        self.env = site.env
        self.client_id = client_id or credential.subject
        self.proxy_plugin = GridProxyPlugin(site.env, credential)
        self.catalog_plugin = DatasetCatalogPlugin(site.container)
        self.data_plugin = RemoteDataPlugin(
            site.container, client_id=self.client_id
        )
        self.session: Optional[SessionInfo] = None
        self.staged: Optional[StagedDataset] = None

    # -- step 1-3: proxy + session ---------------------------------------
    def obtain_proxy(self, lifetime: float = 12 * 3600.0) -> Credential:
        """Create the Grid proxy (no service interaction; instantaneous)."""
        return self.proxy_plugin.obtain_proxy(lifetime)

    def connect(
        self,
        n_engines: Optional[int] = None,
        dataset_hint: Optional[str] = None,
        admission_retry: Optional[RetryPolicy] = None,
    ):
        """Generator op: authenticate and create the session (steps 2-3).

        *dataset_hint* names the dataset this session will analyze, so
        engine placement can prefer workers already caching its parts.

        When the site refuses the session with
        :class:`~repro.services.envelope.RetryAfter` backpressure
        (admission queue full, service queue full), *admission_retry*
        controls client back-off: each attempt waits at least the
        server's ``retry_after`` hint, never less than the policy's own
        delay.  ``None`` (the default) propagates the refusal to the
        caller on the first attempt.
        """
        attempts = 1 if admission_retry is None else admission_retry.max_attempts
        last_refusal: Optional[RetryAfter] = None
        for attempt in range(attempts):
            try:
                info: SessionInfo = yield self.site.container.call(
                    "control",
                    "create_session",
                    {
                        "client_chain": self.proxy_plugin.chain,
                        "n_engines": n_engines,
                        "dataset_hint": dataset_hint,
                    },
                )
            except RetryAfter as fault:
                last_refusal = fault
                if admission_retry is None or not admission_retry.should_retry(
                    attempt
                ):
                    break
                # Honor the server's drain estimate, but keep the
                # policy's exponential floor so a tiny hint cannot
                # stampede the site.
                yield self.env.timeout(
                    max(
                        fault.retry_after,
                        admission_retry.delay(attempt, salt=self.client_id),
                    )
                )
                continue
            self.session = info
            self.data_plugin.bind(info.session_id, info.token)
            return info
        raise last_refusal

    def obtain_proxy_and_connect(
        self,
        n_engines: Optional[int] = None,
        dataset_hint: Optional[str] = None,
    ):
        """Generator op: steps 1-3 in one go."""
        self.obtain_proxy()
        info = yield from self.connect(n_engines, dataset_hint=dataset_hint)
        return info

    def _require_session(self) -> SessionInfo:
        if self.session is None:
            raise ClientError("not connected; call connect() first")
        return self.session

    def reconnect(
        self,
        session_id: Optional[str] = None,
        retry: Optional[RetryPolicy] = None,
    ):
        """Generator op: re-attach to a session after a service restart.

        Retries under *retry* (default :data:`RECONNECT_POLICY`) while the
        manager services are still down — a down service surfaces either
        as :class:`~repro.resilience.faults.ServiceUnavailable` from the
        handler or as a transport :class:`Fault` (the session token is
        revoked by the crash).  A :exc:`SessionError` for a closed or
        unknown session propagates immediately: retrying cannot fix it.

        Returns the fresh :class:`SessionInfo` and re-binds the polling
        plugin to its token.
        """
        if session_id is None:
            session_id = self._require_session().session_id
        policy = retry if retry is not None else RECONNECT_POLICY
        last_error: Optional[BaseException] = None
        for attempt in range(policy.max_attempts):
            try:
                info: SessionInfo = yield self.site.container.call(
                    "control",
                    "reconnect_session",
                    {
                        "client_chain": self.proxy_plugin.chain,
                        "session_id": session_id,
                    },
                )
                self.session = info
                self.data_plugin.bind(info.session_id, info.token)
                return info
            except (ServiceUnavailable, Fault) as exc:
                last_error = exc
                if not policy.should_retry(attempt):
                    break
                yield self.env.timeout(policy.delay(attempt, salt=session_id))
        raise ClientError(
            f"could not reconnect to session {session_id!r}: {last_error}"
        )

    # -- step 4: dataset -------------------------------------------------
    def browse_catalog(self, path: str = "/"):
        """Generator op: catalog directory listing (the chooser, Fig. 3)."""
        listing = yield from self.catalog_plugin.browse(path)
        return listing

    def search_catalog(self, query: str):
        """Generator op: metadata query over the catalog."""
        hits = yield from self.catalog_plugin.search(query)
        return hits

    def select_dataset(
        self,
        dataset_id: str,
        strategy: str = "by-events",
        streams: Optional[int] = None,
    ):
        """Generator op: stage the dataset for this session (steps 4-5)."""
        info = self._require_session()
        staged: StagedDataset = yield self.site.container.call(
            "session",
            "add_dataset",
            {
                "session_id": info.session_id,
                "dataset_id": dataset_id,
                "strategy": strategy,
                "streams": streams,
            },
        )
        self.staged = staged
        return staged

    # -- step 6: code ------------------------------------------------------
    def upload_code(
        self,
        source: str,
        class_name: Optional[str] = None,
        parameters: Optional[dict] = None,
    ):
        """Generator op: stage analysis code to the engines."""
        info = self._require_session()
        bundle = CodeBundle(
            source=source, class_name=class_name, parameters=dict(parameters or {})
        )
        duration = yield self.site.container.call(
            "session",
            "stage_code",
            {"session_id": info.session_id, "bundle": bundle},
        )
        return duration

    def reload_code(
        self,
        source: Optional[str] = None,
        parameters: Optional[dict] = None,
    ):
        """Generator op: dynamic reload with new source/parameters (§3.6)."""
        info = self._require_session()
        duration = yield self.site.container.call(
            "session",
            "reload_code",
            {
                "session_id": info.session_id,
                "source": source,
                "parameters": parameters,
            },
        )
        return duration

    # -- run controls ------------------------------------------------------
    def _control(self, verb: str, argument=None):
        info = self._require_session()
        count = yield self.site.container.call(
            "session",
            "control",
            {"session_id": info.session_id, "verb": verb, "argument": argument},
        )
        return count

    def run(self):
        """Generator op: start/resume the analysis on all engines."""
        return (yield from self._control(Command.RUN))

    def pause(self):
        """Generator op: pause all engines after their current chunk."""
        return (yield from self._control(Command.PAUSE))

    def stop(self):
        """Generator op: stop the run on all engines."""
        return (yield from self._control(Command.STOP))

    def rewind(self):
        """Generator op: reset all engines to event 0, clearing results."""
        return (yield from self._control(Command.REWIND))

    def step(self, n_events: int):
        """Generator op: run exactly *n_events* per engine, then pause."""
        return (yield from self._control(Command.STEP, n_events))

    # -- step 7: results -------------------------------------------------
    def poll(self) -> "PollResult":
        """Generator op: one RMI poll of the merged results."""
        self._require_session()
        tree, progress = yield from self.data_plugin.poll()
        return PollResult(tree=tree, progress=progress)

    def wait_for_completion(
        self,
        poll_interval: float = 5.0,
        timeout: Optional[float] = None,
        reconnect: bool = False,
    ):
        """Generator op: poll until every engine reported final results.

        Returns the last :class:`PollResult`.  Raises :class:`ClientError`
        on timeout.  With ``reconnect=True`` a manager-service outage
        mid-wait (the poll raises ``ServiceUnavailable`` or a transport
        ``Fault`` for the revoked token) triggers
        :meth:`reconnect` with backoff and the wait resumes — the paper's
        disconnect/resume workflow, driven by the durable session layer.
        """
        info = self._require_session()
        deadline = None if timeout is None else self.env.now + timeout
        while True:
            try:
                result = yield from self.poll()
                progress = result.progress
                # Under failure recovery the session service shrinks/grows
                # the expected-engine count as members die and spares join;
                # fall back to the creation-time count when not tracking.
                expected = (
                    progress.expected_engines
                    if progress.expected_engines is not None
                    else info.n_engines
                )
                if progress.engines_reporting >= expected and progress.complete:
                    return result
                # Fail fast if an analysis crashed (node failures are
                # excluded: the session service recovers those by
                # re-dispatch).
                summary = yield from self.status()
            except (ServiceUnavailable, Fault):
                if not reconnect:
                    raise
                info = yield from self.reconnect(info.session_id)
                yield self.env.timeout(poll_interval)
                continue
            if summary["failures"]:
                failure = summary["failures"][0]
                raise ClientError(
                    f"engine job {failure['job']!r} failed: {failure['error']}"
                )
            if summary.get("unrecoverable"):
                raise ClientError(
                    "session is unrecoverable: every engine died and no "
                    "spare worker is available"
                )
            if deadline is not None and self.env.now >= deadline:
                raise ClientError(
                    f"timed out waiting for completion "
                    f"({progress.final_engines}/{expected} final)"
                )
            yield self.env.timeout(poll_interval)

    def status(self):
        """Generator op: session status summary from the session service."""
        info = self._require_session()
        summary = yield self.site.container.call(
            "session", "status", {"session_id": info.session_id}
        )
        return summary

    # -- shutdown ------------------------------------------------------------
    def close(self):
        """Generator op: close the session and release every engine."""
        info = self._require_session()
        result = yield self.site.container.call(
            "control", "close_session", {"session_id": info.session_id}
        )
        self.session = None
        self.staged = None
        return result
