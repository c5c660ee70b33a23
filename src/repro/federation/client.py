"""FederatedClient: broker-routed sessions with transparent failover.

Wraps :class:`~repro.client.client.IPAClient` behind the federation's
:class:`~repro.federation.broker.SessionBroker`:

- ``connect`` ranks candidate sites and walks the list — pre-migrating
  the hinted dataset when asked, then opening the session — falling
  through on ``RetryAfter``/setup failures until one site accepts;
- every delegated operation first checks the bound site's
  ``partitioned`` flag (the control plane is simulated in-process, so a
  severed WAN boundary must be surfaced explicitly) and reacts to
  :class:`SitePartitioned` / ``ServiceUnavailable`` / transport ``Fault``
  by re-brokering to the next-ranked site and replaying the completed
  workflow steps (reconnect → re-select → re-upload → re-run) before
  retrying the interrupted operation.

Replay relies on results being reproducible from the dataset + code
(deterministic content generators), which is what the bit-identical
acceptance tests pin down.
"""

from __future__ import annotations

from typing import Optional

from repro.client.client import ClientError, IPAClient
from repro.federation.errors import FederationError, SitePartitioned
from repro.resilience.faults import ServiceUnavailable
from repro.resilience.retry import RetryPolicy
from repro.services.envelope import Fault, RetryAfter


class FederatedClient:
    """Analysis client bound to a federation instead of one site."""

    def __init__(
        self,
        federation,
        credential,
        client_id: Optional[str] = None,
    ) -> None:
        self.federation = federation
        self.env = federation.env
        self.credential = credential
        self.client_id = client_id or credential.subject
        self.site = None
        self._client: Optional[IPAClient] = None
        # connect() arguments, kept for re-brokering on failover.
        self._n_engines: Optional[int] = None
        self._dataset_hint: Optional[str] = None
        self._vo: Optional[str] = None
        self._migrate = True
        self._admission_retry: Optional[RetryPolicy] = None
        # Completed workflow steps, replayed on the failover site.
        self._dataset: Optional[tuple] = None
        self._code: Optional[tuple] = None
        self._running = False

    # -- introspection ---------------------------------------------------
    @property
    def site_name(self) -> Optional[str]:
        return self.site.name if self.site is not None else None

    @property
    def session(self):
        return self._client.session if self._client is not None else None

    @property
    def staged(self):
        return self._client.staged if self._client is not None else None

    # -- connection ------------------------------------------------------
    def connect(
        self,
        n_engines: Optional[int] = None,
        dataset_hint: Optional[str] = None,
        vo: Optional[str] = None,
        site: Optional[str] = None,
        migrate: bool = True,
        admission_retry: Optional[RetryPolicy] = None,
    ):
        """Generator op: broker a session to the best-ranked site.

        ``site=`` pins the choice to one site (no fallback); otherwise
        every unpartitioned site is tried best-score-first.  With
        ``migrate=True`` and a *dataset_hint*, the replication policy
        makes the dataset whole-resident at a candidate before the
        session opens there, so staging runs warm off the local SE.
        """
        self._n_engines = n_engines
        self._dataset_hint = dataset_hint
        self._vo = vo
        self._migrate = migrate
        self._admission_retry = admission_retry
        fed = self.federation
        resolved_vo = vo if vo is not None else self._default_vo()
        if site is not None:
            pinned = fed.broker.score(site, dataset_hint, n_engines, resolved_vo)
            if pinned is None:
                raise FederationError(f"site {site!r} is partitioned")
            ranked = [pinned]
        else:
            ranked = fed.broker.rank(dataset_hint, n_engines, resolved_vo)
        if not ranked:
            raise FederationError("no unpartitioned site available")
        last_error: Optional[BaseException] = None
        for score in ranked:
            target = fed.site(score.site)
            try:
                if migrate and dataset_hint is not None:
                    yield from fed.policy.ensure_resident(
                        dataset_hint, score.site
                    )
                inner = IPAClient(
                    target, self.credential, client_id=self.client_id
                )
                inner.obtain_proxy()
                info = yield from inner.connect(
                    n_engines,
                    dataset_hint=dataset_hint,
                    admission_retry=admission_retry,
                )
            except (
                RetryAfter,
                ServiceUnavailable,
                Fault,
                FederationError,
            ) as exc:
                last_error = exc
                fed.note_fallback(score.site, type(exc).__name__)
                continue
            self.site = target
            self._client = inner
            fed.note_brokered(score, self.client_id)
            return info
        raise FederationError(
            "every candidate site refused the session"
        ) from last_error

    def _default_vo(self) -> str:
        for site in self.federation.sites.values():
            vo = site.authz.vo_of(self.credential.subject)
            if vo is not None:
                return vo
        return "ilc"

    # -- failover core ---------------------------------------------------
    def _require(self) -> IPAClient:
        if self._client is None:
            raise ClientError("not connected; call connect() first")
        return self._client

    def _check_reachable(self) -> None:
        if self.site is not None and self.site.partitioned:
            raise SitePartitioned(
                f"site {self.site.name!r} is partitioned from the WAN"
            )

    def failover(self, reason: str = "manual"):
        """Generator op: re-broker and replay completed workflow steps.

        The old site's session is abandoned where it stands (its
        engines are reclaimed by lifetime expiry or on heal); the new
        site gets a fresh session brought to the same point: dataset
        re-selected, code re-uploaded, run resumed.
        """
        fed = self.federation
        dead = self.site_name
        self.site = None
        self._client = None
        info = yield from self.connect(
            self._n_engines,
            dataset_hint=self._dataset_hint,
            vo=self._vo,
            migrate=self._migrate,
            admission_retry=self._admission_retry,
        )
        if dead is not None:
            fed.note_failover(dead, self.site.name, self.client_id, reason)
        if self._dataset is not None:
            yield from self._client.select_dataset(*self._dataset)
        if self._code is not None:
            yield from self._client.upload_code(*self._code)
        if self._running:
            yield from self._client.run()
        return info

    def _call(self, op):
        """Generator op: run *op(client)*, failing over on a site fault."""
        attempts = len(self.federation.sites) + 1
        last_error: Optional[BaseException] = None
        for _ in range(attempts):
            client = self._require()
            try:
                self._check_reachable()
                result = yield from op(client)
                return result
            except (SitePartitioned, ServiceUnavailable, Fault) as exc:
                last_error = exc
                yield from self.failover(reason=type(exc).__name__)
        raise FederationError("failover attempts exhausted") from last_error

    # -- delegated workflow ops ------------------------------------------
    def select_dataset(
        self,
        dataset_id: str,
        strategy: str = "by-events",
        streams: Optional[int] = None,
    ):
        """Generator op: stage the dataset at the brokered site."""
        staged = yield from self._call(
            lambda c: c.select_dataset(dataset_id, strategy, streams)
        )
        self._dataset = (dataset_id, strategy, streams)
        return staged

    def upload_code(
        self,
        source: str,
        class_name: Optional[str] = None,
        parameters: Optional[dict] = None,
    ):
        """Generator op: stage analysis code at the brokered site."""
        duration = yield from self._call(
            lambda c: c.upload_code(source, class_name, parameters)
        )
        self._code = (source, class_name, parameters)
        return duration

    def run(self):
        """Generator op: start/resume the analysis."""
        count = yield from self._call(lambda c: c.run())
        self._running = True
        return count

    def poll(self):
        """Generator op: one poll of the merged results."""
        return (yield from self._call(lambda c: c.poll()))

    def status(self):
        """Generator op: session status from the current site."""
        return (yield from self._call(lambda c: c.status()))

    def wait_for_completion(
        self,
        poll_interval: float = 5.0,
        timeout: Optional[float] = None,
    ):
        """Generator op: poll until complete, failing over as needed.

        Mirrors :meth:`IPAClient.wait_for_completion` but routes every
        poll/status through the failover wrapper, so a site partition
        mid-wait re-brokers the session instead of raising.
        """
        deadline = None if timeout is None else self.env.now + timeout
        while True:
            result = yield from self.poll()
            progress = result.progress
            expected = (
                progress.expected_engines
                if progress.expected_engines is not None
                else self._require().session.n_engines
            )
            if progress.engines_reporting >= expected and progress.complete:
                return result
            summary = yield from self.status()
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
                raise ClientError("timed out waiting for completion")
            yield self.env.timeout(poll_interval)

    # -- shutdown --------------------------------------------------------
    def close(self):
        """Generator op: close the session at the current site.

        A partitioned site cannot be reached, so its session is simply
        abandoned — the site reclaims the engines when lifetimes expire
        or the partition heals.
        """
        client = self._require()
        if self.site is not None and self.site.partitioned:
            self._detach()
            return None
        result = yield from client.close()
        self._detach()
        return result

    def _detach(self) -> None:
        self.site = None
        self._client = None
        self._dataset = None
        self._code = None
        self._running = False
