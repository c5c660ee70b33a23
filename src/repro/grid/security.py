"""Toy Grid Security Infrastructure: CA, proxy certificates, VO authorization.

The paper's client obtains a *Grid proxy* (a short-lived certificate signed
by the user's long-lived identity certificate), mutually authenticates with
the Web Services, and is then *authorized* against the site policy of its
Virtual Organization (§3.1–§3.2).

We reproduce that whole workflow with an HMAC-based toy PKI — the
*protocol shape* (issuance → delegation → chain validation → expiry →
VO policy lookup) is identical to GSI, while the cryptography is
deliberately simple (this is a simulation substrate, not a security
product).

Time for expiry checks is *simulated* time, supplied by the caller (the
services pass ``env.now``), so certificate-lifetime behaviour is fully
testable and deterministic.
"""

from __future__ import annotations

import hashlib
import hmac
import json
import secrets
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple


class SecurityError(Exception):
    """Raised on any authentication or authorization failure."""


def _hmac(key: bytes, payload: bytes) -> str:
    return hmac.new(key, payload, hashlib.sha256).hexdigest()


def _canonical(payload: dict) -> bytes:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()


@dataclass(frozen=True)
class Certificate:
    """A signed statement binding a *subject* to a verification key.

    ``issuer_chain`` lists subjects from the immediate issuer up to (and
    including) the CA, so proxy chains of any depth can be validated.
    """

    subject: str
    issuer: str
    issuer_chain: Tuple[str, ...]
    not_before: float
    not_after: float
    #: Public half of the key pair (toy: hex token used as HMAC key id).
    public_key: str
    #: Depth of delegation: 0 = identity cert, 1 = first-level proxy, ...
    proxy_depth: int
    signature: str

    def payload(self) -> dict:
        """The signed portion of the certificate."""
        return {
            "subject": self.subject,
            "issuer": self.issuer,
            "issuer_chain": list(self.issuer_chain),
            "not_before": self.not_before,
            "not_after": self.not_after,
            "public_key": self.public_key,
            "proxy_depth": self.proxy_depth,
        }

    def valid_at(self, now: float) -> bool:
        """Whether *now* falls inside the validity window."""
        return self.not_before <= now <= self.not_after


@dataclass
class Credential:
    """A certificate plus its private key — what a party actually holds."""

    certificate: Certificate
    _private_key: bytes

    @property
    def subject(self) -> str:
        """Subject name of the underlying certificate."""
        return self.certificate.subject

    def sign(self, payload: dict) -> str:
        """Sign arbitrary payload with this credential's private key."""
        return _hmac(self._private_key, _canonical(payload))

    def issue_proxy(
        self, now: float, lifetime: float = 12 * 3600.0
    ) -> "Credential":
        """Create a short-lived proxy credential delegated from this one.

        Mirrors ``grid-proxy-init``: the proxy's subject is the identity
        subject with a ``/CN=proxy`` suffix, it is signed by *this*
        credential, and its lifetime is bounded by the parent's.
        """
        if lifetime <= 0:
            raise SecurityError("proxy lifetime must be > 0")
        parent = self.certificate
        if not parent.valid_at(now):
            raise SecurityError(f"parent certificate of {self.subject} expired")
        not_after = min(now + lifetime, parent.not_after)
        private_key = secrets.token_bytes(32)
        public_key = hashlib.sha256(private_key).hexdigest()
        payload = {
            "subject": f"{parent.subject}/CN=proxy",
            "issuer": parent.subject,
            "issuer_chain": [parent.subject, *parent.issuer_chain],
            "not_before": now,
            "not_after": not_after,
            "public_key": public_key,
            "proxy_depth": parent.proxy_depth + 1,
        }
        signature = self.sign(payload)
        cert = Certificate(
            subject=payload["subject"],
            issuer=parent.subject,
            issuer_chain=tuple(payload["issuer_chain"]),
            not_before=now,
            not_after=not_after,
            public_key=public_key,
            proxy_depth=payload["proxy_depth"],
            signature=signature,
        )
        return Credential(cert, private_key)


class CertificateAuthority:
    """Issues identity certificates and validates certificate chains.

    A single CA per simulated grid is enough for the paper's scenario; the
    validation API accepts the full chain of certificates (leaf first) just
    like a TLS/GSI handshake would present it.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._key = secrets.token_bytes(32)
        #: Private keys of issued credentials, kept to verify delegation
        #: signatures (stand-in for real public-key cryptography).
        self._issued_keys: Dict[str, bytes] = {}
        self._revoked: set = set()

    def issue_identity(
        self,
        subject: str,
        now: float,
        lifetime: float = 365 * 24 * 3600.0,
    ) -> Credential:
        """Issue a long-lived identity credential for *subject*."""
        if lifetime <= 0:
            raise SecurityError("lifetime must be > 0")
        private_key = secrets.token_bytes(32)
        public_key = hashlib.sha256(private_key).hexdigest()
        payload = {
            "subject": subject,
            "issuer": self.name,
            "issuer_chain": [self.name],
            "not_before": now,
            "not_after": now + lifetime,
            "public_key": public_key,
            "proxy_depth": 0,
        }
        cert = Certificate(
            subject=subject,
            issuer=self.name,
            issuer_chain=(self.name,),
            not_before=now,
            not_after=now + lifetime,
            public_key=public_key,
            proxy_depth=0,
            signature=_hmac(self._key, _canonical(payload)),
        )
        credential = Credential(cert, private_key)
        self._issued_keys[subject] = private_key
        return credential

    def revoke(self, subject: str) -> None:
        """Add *subject* to the revocation list."""
        self._revoked.add(subject)

    def register_delegation_key(self, subject: str, key: bytes) -> None:
        """Record a proxy's signing key (toy stand-in for public keys)."""
        self._issued_keys[subject] = key

    def validate_chain(self, chain: List[Certificate], now: float) -> str:
        """Validate a certificate chain (leaf first) and return the identity.

        Checks, in GSI order: non-empty chain, every link's validity window,
        signature of each certificate by its issuer, chain continuity
        (each issuer is the next subject, terminating at this CA), and the
        revocation list.  Returns the *identity* subject (depth-0 cert) the
        leaf delegates for.
        """
        if not chain:
            raise SecurityError("empty certificate chain")
        for cert in chain:
            if not cert.valid_at(now):
                raise SecurityError(f"certificate {cert.subject!r} expired")
            if cert.subject in self._revoked:
                raise SecurityError(f"certificate {cert.subject!r} revoked")
        # Continuity + signatures.
        for i, cert in enumerate(chain):
            if cert.proxy_depth != len(chain) - 1 - i:
                raise SecurityError(
                    f"chain depth mismatch at {cert.subject!r}"
                )
            if cert.issuer == self.name:
                expected = _hmac(self._key, _canonical(cert.payload()))
                if not hmac.compare_digest(expected, cert.signature):
                    raise SecurityError(
                        f"bad CA signature on {cert.subject!r}"
                    )
                if i != len(chain) - 1:
                    raise SecurityError("identity certificate not last in chain")
            else:
                if i + 1 >= len(chain):
                    raise SecurityError(
                        f"chain broken: no issuer cert for {cert.subject!r}"
                    )
                issuer_cert = chain[i + 1]
                if issuer_cert.subject != cert.issuer:
                    raise SecurityError(
                        f"chain broken at {cert.subject!r}: issuer "
                        f"{cert.issuer!r} != {issuer_cert.subject!r}"
                    )
                issuer_key = self._issued_keys.get(issuer_cert.subject)
                if issuer_key is None:
                    raise SecurityError(
                        f"unknown issuer key for {issuer_cert.subject!r}"
                    )
                expected = _hmac(issuer_key, _canonical(cert.payload()))
                if not hmac.compare_digest(expected, cert.signature):
                    raise SecurityError(
                        f"bad delegation signature on {cert.subject!r}"
                    )
        identity = chain[-1].subject
        return identity


def build_chain(credential: Credential, *parents: Credential) -> List[Certificate]:
    """Assemble a leaf-first certificate chain from credentials."""
    return [credential.certificate, *(p.certificate for p in parents)]


@dataclass
class SitePolicy:
    """Per-site Grid-VO policy (§2.2: "determined by the Grid-VO policy").

    Parameters
    ----------
    max_engines_per_session:
        Ceiling on analysis engines one session may start.
    interactive_queue:
        Name of the dedicated fast queue sessions are mapped to.
    allowed_vos:
        VOs whose members may use the site.
    """

    max_engines_per_session: int = 16
    interactive_queue: str = "interactive"
    allowed_vos: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.max_engines_per_session < 1:
            raise ValueError("max_engines_per_session must be >= 1")


class VirtualOrganization:
    """A VO: named membership plus role assignments."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._members: Dict[str, str] = {}  # subject -> role

    def add_member(self, subject: str, role: str = "member") -> None:
        """Enroll *subject* with *role* (``member`` or ``admin``)."""
        self._members[subject] = role

    def remove_member(self, subject: str) -> None:
        """Drop *subject* from the VO (no error if absent)."""
        self._members.pop(subject, None)

    def is_member(self, subject: str) -> bool:
        """Whether *subject* belongs to this VO."""
        return subject in self._members

    def role(self, subject: str) -> Optional[str]:
        """The subject's role, or ``None``."""
        return self._members.get(subject)


class AuthorizationService:
    """Maps an authenticated identity to what it may do at the site."""

    def __init__(
        self, vos: List[VirtualOrganization], policy: SitePolicy
    ) -> None:
        self._vos = {vo.name: vo for vo in vos}
        self.policy = policy

    def add_vo(self, vo: VirtualOrganization, allowed: bool = True) -> None:
        """Register another VO; with *allowed*, admit it at this site.

        Multi-tenant sites (fair-share admission, WFQ dispatch) grow
        their VO set at runtime; re-adding an existing name replaces it.
        """
        self._vos[vo.name] = vo
        if allowed and vo.name not in self.policy.allowed_vos:
            self.policy.allowed_vos = (*self.policy.allowed_vos, vo.name)

    def authorize(self, identity: str) -> SitePolicy:
        """Authorize *identity*; returns the effective site policy.

        Raises :class:`SecurityError` if the identity belongs to no allowed
        VO.
        """
        for vo_name in self.policy.allowed_vos:
            vo = self._vos.get(vo_name)
            if vo is not None and vo.is_member(identity):
                return self.policy
        raise SecurityError(
            f"identity {identity!r} not authorized by any allowed VO"
        )

    def vo_of(self, identity: str) -> Optional[str]:
        """Name of the first allowed VO containing *identity*."""
        for vo_name in self.policy.allowed_vos:
            vo = self._vos.get(vo_name)
            if vo is not None and vo.is_member(identity):
                return vo_name
        return None


@dataclass
class SecurityContext:
    """Result of a successful mutual authentication handshake."""

    identity: str
    proxy_subject: str
    established_at: float
    expires_at: float
    session_key: str

    def valid_at(self, now: float) -> bool:
        """Whether the context is still usable at *now*."""
        return now <= self.expires_at


def mutual_authenticate(
    client_chain: List[Certificate],
    service_chain: List[Certificate],
    ca: CertificateAuthority,
    now: float,
) -> SecurityContext:
    """Perform GSI-style mutual authentication between client and service.

    Both sides' chains are validated against the same CA; the resulting
    context carries the *client* identity (the party being authorized) and
    expires when the client proxy does.
    """
    client_identity = ca.validate_chain(client_chain, now)
    ca.validate_chain(service_chain, now)  # client verifies the service too
    leaf = client_chain[0]
    session_key = hashlib.sha256(
        (leaf.signature + service_chain[0].signature).encode()
    ).hexdigest()
    return SecurityContext(
        identity=client_identity,
        proxy_subject=leaf.subject,
        established_at=now,
        expires_at=leaf.not_after,
        session_key=session_key,
    )
