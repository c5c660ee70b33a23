"""WS-Resource Framework: stateful resources behind stateless services.

"Since Web Services are stateless, creating an instance of a Web Service
means creation of an instance of Web Service 'resources'" (§3.2).  A
:class:`ResourceHome` mints the :class:`ResourceRef` pointers (id + key)
a client holds.  The resource's properties are the session's journalled
:class:`~repro.services.session_state.SessionState`; a session resource
has no lifetime: it lives until the session closes.
"""

from __future__ import annotations

import secrets
from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class ResourceRef:
    """The client-visible 'pointer' to a Web Service resource."""

    resource_id: str
    key: str
    resource_type: str


class ResourceHome:
    """Mints the refs of one resource type (e.g. ``"session"``)."""

    def __init__(self, resource_type: str) -> None:
        self.resource_type = resource_type
        self._counter = 0

    def create(self, resource_id: Optional[str] = None) -> ResourceRef:
        """Mint a ref (id + access key).

        Passing ``resource_id`` adopts an existing identity (service
        recovery re-minting a journaled session id); the counter is
        advanced past any numeric suffix so later ids cannot collide.
        """
        if resource_id is not None:
            suffix = resource_id.rsplit("-", 1)[-1]
            if suffix.isdigit():
                self._counter = max(self._counter, int(suffix))
        else:
            self._counter += 1
            resource_id = f"{self.resource_type}-{self._counter}"
        return ResourceRef(
            resource_id=resource_id,
            key=secrets.token_hex(8),
            resource_type=self.resource_type,
        )
