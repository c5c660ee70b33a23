"""Control Service: the authenticated front door of the manager node.

"The client is authorized and authenticated by the control service using
the proxy that was created by the client.  Similarly, the client
authenticates the service for its validity using the mutual authentication
mechanism ... The control service creates an instance of session service
and returns the 'pointer' to this instance to the client" (§3.2).

It also mints the session token that unlocks the cheap RMI polling channel
("none of the RMI objects could be instantiated without first creating a
secure session with the Web Service", §3.7).
"""

from __future__ import annotations

from typing import List, Optional

from repro.grid.security import (
    Certificate,
    CertificateAuthority,
    Credential,
    SecurityContext,
    mutual_authenticate,
)
from repro.services.envelope import ServiceContainer
from repro.services.session import SessionService
from repro.services.session_state import SessionError, SessionInfo
from repro.sim import Environment


class ControlService:
    """Mutual authentication + session creation."""

    def __init__(
        self,
        env: Environment,
        ca: CertificateAuthority,
        service_credential: Credential,
        session_service: SessionService,
        container: ServiceContainer,
        site_name: str,
    ) -> None:
        self.env = env
        self.ca = ca
        self.service_credential = service_credential
        self.session_service = session_service
        self.container = container
        #: Site label of the per-site stats panel.
        self.site_name = site_name

    def authenticate(self, client_chain: List[Certificate]) -> SecurityContext:
        """GSI-style mutual authentication; returns the security context."""
        return mutual_authenticate(
            client_chain,
            [self.service_credential.certificate],
            self.ca,
            self.env.now,
        )

    def create_session(
        self,
        client_chain: List[Certificate],
        n_engines: Optional[int] = None,
        dataset_hint: Optional[str] = None,
    ):
        """Authenticate, authorize, and create a session (generator op).

        Returns the :class:`~repro.services.session_state.SessionInfo`; the
        session token is registered with the container so subsequent RMI
        polling calls are accepted.  *dataset_hint* is forwarded to the
        session service for data-affinity engine placement.
        """
        context = self.authenticate(client_chain)
        info: SessionInfo = yield self.env.process(
            self.session_service.obs.tracer.trace_gen(
                "session.create",
                self.session_service.create_session(
                    context, client_chain, n_engines,
                    dataset_hint=dataset_hint,
                ),
                identity=context.identity,
            )
        )
        self.container.issue_token(info.token)
        return info

    def close_session(self, session_id: str):
        """Close a session and revoke its RMI token (generator op).

        Tolerates a session that only exists as a journal tombstone after
        a service crash: the close is then the idempotent no-op and there
        is no live token left to revoke.
        """
        try:
            token = self.session_service.token(session_id)
        except SessionError:
            if not self.session_service.closed_before_crash(session_id):
                raise
            token = None
        result = yield self.env.process(self.session_service.close(session_id))
        if token is not None:
            self.container.revoke_token(token)
        return result

    def stats(self) -> dict:
        """Site load snapshot: container queues + admission occupancy.

        Plain operation for operators and back-pressure-aware clients:
        what each service queue looks like right now, and (when the site
        runs admission control) how the engine slots are spread across
        VOs.
        """
        out: dict = {"services": self.container.stats(), "admission": None}
        admission = self.session_service.admission
        if admission is not None:
            out["admission"] = admission.stats()
        out["site"] = {
            "name": self.site_name,
            "sessions": self.session_service.active_sessions,
            "resident_replica_mb": round(
                self.session_service.replicas.resident_mb(), 3
            ),
            "admission_backlog": (
                admission.waiting() if admission is not None else 0
            ),
        }
        return out

    def reconnect_session(
        self, client_chain: List[Certificate], session_id: str
    ) -> SessionInfo:
        """Re-authenticate and re-attach a client after a service restart.

        Plain (non-generator) operation: the session already exists, so
        this only refreshes the security context, re-registers the RMI
        token with the container, and returns a fresh
        :class:`~repro.services.session_state.SessionInfo`.
        """
        context = self.authenticate(client_chain)
        info = self.session_service.reconnect(
            session_id, context, client_chain
        )
        self.container.issue_token(info.token)
        return info
