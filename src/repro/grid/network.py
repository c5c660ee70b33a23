"""Network topology and max-min fair flow model for the simulated grid.

Hosts are vertices; links are undirected edges with a bandwidth (MB/s) and a
one-way latency (s).  A *flow* (file transfer) follows the shortest route
between two hosts and is rate-limited by every link it crosses.  Concurrent
flows share link bandwidth according to the classic **max-min fairness**
(water-filling) allocation: link capacities are divided equally among
unsaturated flows, bottlenecked flows are frozen at their fair share, and the
released capacity is redistributed, until every flow is frozen.

Whenever a flow starts or finishes the allocation is recomputed and every
in-flight flow is re-timed — so a transfer that shared a WAN link with three
others automatically speeds up when they complete, exactly like TCP flows
settling into a new equilibrium.

The WAN/LAN asymmetry that drives the paper's headline result (§4: "moving
the dataset is faster for the Grid case because the movement is over a local
area network instead of a wide area network") is expressed purely through
link bandwidths; see :mod:`repro.core.config` for calibrated values.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.sim import Environment, Interrupt, LinkDown, Process


class NetworkError(Exception):
    """Raised for invalid topology operations or unroutable transfers."""


@dataclass(frozen=True)
class Host:
    """A network endpoint (client machine, manager, SE, worker...).

    Parameters
    ----------
    name:
        Globally unique host name.
    site:
        Label grouping hosts into administrative domains (e.g. ``"slac"``
        vs ``"desktop"``); purely informational.
    """

    name: str
    site: str = ""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Host({self.name!r})"


class Link:
    """An undirected network link with finite bandwidth and fixed latency.

    Parameters
    ----------
    name:
        Unique link name (used in route listings and stats).
    a, b:
        Endpoint host names.
    bandwidth:
        Capacity in MB/s shared by all flows crossing the link.
    latency:
        One-way propagation delay in seconds, paid once per transfer.
    """

    def __init__(
        self,
        name: str,
        a: str,
        b: str,
        bandwidth: float,
        latency: float = 0.0,
    ) -> None:
        if bandwidth <= 0:
            raise ValueError(f"link {name}: bandwidth must be > 0")
        if latency < 0:
            raise ValueError(f"link {name}: latency must be >= 0")
        self.name = name
        self.a = a
        self.b = b
        self.bandwidth = float(bandwidth)
        self.latency = float(latency)
        #: Whether the link is operational; down links carry no routes and
        #: in-flight flows crossing them fail with :class:`LinkDown`.
        self.up = True

    def endpoints(self) -> Tuple[str, str]:
        """The two host names this link connects."""
        return (self.a, self.b)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Link({self.name!r}, {self.a}<->{self.b}, {self.bandwidth} MB/s)"


@dataclass(frozen=True)
class Route:
    """An ordered sequence of links between two hosts."""

    src: str
    dst: str
    links: Tuple[Link, ...]

    @property
    def latency(self) -> float:
        """Total one-way latency along the route."""
        return sum(link.latency for link in self.links)

    @property
    def bottleneck_bandwidth(self) -> float:
        """Smallest link bandwidth on the route."""
        return min(link.bandwidth for link in self.links)


@dataclass
class TransferStats:
    """Completion record returned by a finished transfer."""

    src: str
    dst: str
    size_mb: float
    started_at: float
    finished_at: float
    #: Number of max-min re-allocations this flow lived through.
    reallocations: int = 0

    @property
    def duration(self) -> float:
        """Wall-clock (simulated) transfer duration in seconds."""
        return self.finished_at - self.started_at

    @property
    def mean_rate(self) -> float:
        """Average achieved rate in MB/s."""
        if self.duration <= 0:
            return float("inf")
        return self.size_mb / self.duration


class _Flow:
    """Internal bookkeeping for one in-flight transfer."""

    __slots__ = (
        "src",
        "dst",
        "links",
        "remaining_mb",
        "rate",
        "stream_cap",
        "process",
        "stats",
    )

    def __init__(
        self,
        src: str,
        dst: str,
        links: Tuple[Link, ...],
        size_mb: float,
        stream_cap: Optional[float],
        started_at: float,
    ) -> None:
        self.src = src
        self.dst = dst
        self.links = links
        self.remaining_mb = float(size_mb)
        self.rate = 0.0
        self.stream_cap = stream_cap
        self.process: Optional[Process] = None
        self.stats = TransferStats(src, dst, size_mb, started_at, float("nan"))

    def cap(self) -> float:
        """Per-flow rate ceiling: the stream cap, if any."""
        return float("inf") if self.stream_cap is None else self.stream_cap


def maxmin_allocate(
    flows: List[_Flow], capacities: Dict[Link, float]
) -> Dict[_Flow, float]:
    """Compute the max-min fair rate for every flow.

    Water-filling algorithm: repeatedly find the most constrained link
    (smallest remaining-capacity / unfrozen-flow ratio), freeze its flows at
    that fair share, subtract, and continue.  Per-flow caps are honoured by
    treating a capped flow as "frozen" once its cap is the binding
    constraint.

    Parameters
    ----------
    flows:
        Active flows; each contributes its link set and optional cap.
    capacities:
        Capacity in MB/s for every link referenced by the flows.

    Returns
    -------
    dict
        Mapping flow -> allocated rate (MB/s).
    """
    rates: Dict[_Flow, float] = {}
    remaining_cap = dict(capacities)
    unfrozen: Set[_Flow] = set(flows)

    # First freeze flows whose explicit cap is below any possible fair share.
    # The main loop handles this naturally by treating caps as candidate
    # bottlenecks.
    while unfrozen:
        # Candidate fair share per link (only links with unfrozen flows).
        link_users: Dict[Link, List[_Flow]] = {}
        for flow in unfrozen:
            for link in flow.links:
                link_users.setdefault(link, []).append(flow)

        best_share = float("inf")
        best_link: Optional[Link] = None
        for link, users in link_users.items():
            share = remaining_cap[link] / len(users)
            if share < best_share:
                best_share = share
                best_link = link

        # A flow whose cap is below the smallest fair share is bound by its
        # cap, not by any link: freeze the most-capped flow first.
        capped = min(unfrozen, key=lambda f: f.cap())
        if capped.cap() < best_share:
            rate = capped.cap()
            rates[capped] = rate
            unfrozen.discard(capped)
            for link in capped.links:
                remaining_cap[link] = max(0.0, remaining_cap[link] - rate)
            continue

        if best_link is None:  # pragma: no cover - defensive
            break
        for flow in link_users[best_link]:
            rate = min(best_share, flow.cap())
            rates[flow] = rate
            unfrozen.discard(flow)
            for link in flow.links:
                remaining_cap[link] = max(0.0, remaining_cap[link] - rate)
        remaining_cap[best_link] = 0.0
    return rates


class Network:
    """A set of hosts and links with max-min fair shared transfers.

    Parameters
    ----------
    env:
        The simulation environment that drives all transfers.
    """

    def __init__(self, env: Environment) -> None:
        self.env = env
        self._hosts: Dict[str, Host] = {}
        self._links: Dict[str, Link] = {}
        self._adjacency: Dict[str, List[Link]] = {}
        self._flows: List[_Flow] = []
        self._route_cache: Dict[Tuple[str, str], Route] = {}

    # -- topology -------------------------------------------------------
    def add_host(self, name: str, site: str = "") -> Host:
        """Register a host; names must be unique."""
        if name in self._hosts:
            raise NetworkError(f"host {name!r} already exists")
        host = Host(name, site)
        self._hosts[name] = host
        self._adjacency[name] = []
        return host

    def add_link(
        self,
        name: str,
        a: str,
        b: str,
        bandwidth: float,
        latency: float = 0.0,
    ) -> Link:
        """Connect hosts *a* and *b* with a new link."""
        for endpoint in (a, b):
            if endpoint not in self._hosts:
                raise NetworkError(f"unknown host {endpoint!r}")
        if name in self._links:
            raise NetworkError(f"link {name!r} already exists")
        link = Link(name, a, b, bandwidth, latency)
        self._links[name] = link
        self._adjacency[a].append(link)
        self._adjacency[b].append(link)
        self._route_cache.clear()
        return link

    @property
    def hosts(self) -> Dict[str, Host]:
        """All registered hosts by name."""
        return dict(self._hosts)

    @property
    def links(self) -> Dict[str, Link]:
        """All registered links by name."""
        return dict(self._links)

    def route(self, src: str, dst: str) -> Route:
        """Shortest (fewest-hops) route between two hosts (BFS).

        Raises :class:`NetworkError` if either host is unknown or no path
        exists.
        """
        for endpoint in (src, dst):
            if endpoint not in self._hosts:
                raise NetworkError(f"unknown host {endpoint!r}")
        if src == dst:
            return Route(src, dst, ())
        key = (src, dst)
        cached = self._route_cache.get(key)
        if cached is not None:
            return cached

        # Breadth-first search over hosts.
        parent: Dict[str, Tuple[str, Link]] = {}
        visited = {src}
        frontier = deque([src])
        while frontier:
            here = frontier.popleft()
            for link in self._adjacency[here]:
                if not link.up:
                    continue
                there = link.b if link.a == here else link.a
                if there in visited:
                    continue
                visited.add(there)
                parent[there] = (here, link)
                if there == dst:
                    frontier.clear()
                    break
                frontier.append(there)
        if dst not in parent:
            raise NetworkError(f"no route from {src!r} to {dst!r}")

        links: List[Link] = []
        node = dst
        while node != src:
            prev, link = parent[node]
            links.append(link)
            node = prev
        route = Route(src, dst, tuple(reversed(links)))
        self._route_cache[key] = route
        return route

    def links_of(self, host: str) -> List[Link]:
        """All links attached to *host*."""
        if host not in self._hosts:
            raise NetworkError(f"unknown host {host!r}")
        return list(self._adjacency[host])

    def hosts_in_site(self, site: str) -> List[str]:
        """Names of every host carrying the given ``site`` label."""
        return [
            name for name, host in self._hosts.items() if host.site == site
        ]

    def boundary_links(self, site: str) -> List[Link]:
        """Links with exactly one endpoint inside *site*.

        These are the links a site partition severs: intra-site links stay
        up (the site keeps running internally) while every route in or out
        of the site disappears.
        """
        members = set(self.hosts_in_site(site))
        if not members:
            raise NetworkError(f"no hosts in site {site!r}")
        return [
            link
            for link in self._links.values()
            if (link.a in members) != (link.b in members)
        ]

    # -- failures -------------------------------------------------------
    def fail_link(self, name: str) -> None:
        """Take a link down.

        Routes are recomputed (the cache is cleared) and every in-flight
        flow crossing the link is failed with :class:`LinkDown`.  Idempotent.
        """
        link = self._links.get(name)
        if link is None:
            raise NetworkError(f"unknown link {name!r}")
        if not link.up:
            return
        link.up = False
        self._route_cache.clear()
        for flow in list(self._flows):
            if link in flow.links and flow.process is not None:
                if flow.process.is_alive and flow.process is not self.env.active_process:
                    flow.process.interrupt(LinkDown(link.name, "link failed"))

    def restore_link(self, name: str) -> None:
        """Bring a previously failed link back up (idempotent)."""
        link = self._links.get(name)
        if link is None:
            raise NetworkError(f"unknown link {name!r}")
        if link.up:
            return
        link.up = True
        self._route_cache.clear()

    def fail_links_of(self, host: str) -> List[str]:
        """Take down every link attached to *host*; returns their names."""
        names = [link.name for link in self.links_of(host)]
        for link_name in names:
            self.fail_link(link_name)
        return names

    # -- flow dynamics ----------------------------------------------------
    @property
    def active_flow_count(self) -> int:
        """Number of transfers currently in flight."""
        return len(self._flows)

    def _rebalance(self) -> None:
        """Recompute all flow rates and re-time in-flight transfers."""
        if not self._flows:
            return
        capacities = {
            link: link.bandwidth
            for flow in self._flows
            for link in flow.links
        }
        rates = maxmin_allocate(self._flows, capacities)
        for flow in self._flows:
            new_rate = rates.get(flow, 0.0)
            if flow.rate != new_rate:
                flow.rate = new_rate
                flow.stats.reallocations += 1
                if (
                    flow.process is not None
                    and flow.process.is_alive
                    and flow.process is not self.env.active_process
                ):
                    flow.process.interrupt("rate-change")

    def transfer(
        self,
        src: str,
        dst: str,
        size_mb: float,
        stream_cap: Optional[float] = None,
    ) -> Process:
        """Start a transfer of *size_mb* from *src* to *dst*.

        Returns a :class:`~repro.sim.Process` whose value on completion is a
        :class:`TransferStats`.  Yield it from another process to wait::

            stats = yield net.transfer("se", "worker-3", 29.4)

        Parameters
        ----------
        stream_cap:
            Optional per-flow rate ceiling in MB/s (single TCP stream
            behaviour).
        """
        if size_mb < 0:
            raise ValueError("size_mb must be >= 0")
        route = self.route(src, dst)
        flow = _Flow(src, dst, route.links, size_mb, stream_cap, self.env.now)
        proc = self.env.process(self._run_flow(flow, route))
        flow.process = proc
        return proc

    def _run_flow(self, flow: _Flow, route: Route):
        # Propagation delay up front (connection establishment + first byte).
        if route.latency > 0:
            yield self.env.timeout(route.latency)
        if flow.remaining_mb <= 0 or not route.links:
            # Zero-byte or same-host transfer: latency only.
            flow.stats.finished_at = self.env.now
            return flow.stats

        self._flows.append(flow)
        self._rebalance()
        try:
            while flow.remaining_mb > 1e-12:
                if flow.rate <= 0:  # pragma: no cover - defensive
                    raise NetworkError(
                        f"flow {flow.src}->{flow.dst} starved (rate 0)"
                    )
                rate_during_wait = flow.rate
                eta = flow.remaining_mb / rate_during_wait
                started = self.env.now
                try:
                    yield self.env.timeout(eta)
                    flow.remaining_mb = 0.0
                except Interrupt as intr:
                    if isinstance(intr.cause, LinkDown):
                        # A link on our route died: the transfer fails and
                        # the caller decides whether to retry over a new
                        # route.
                        raise intr.cause from None
                    # Deduct progress at the rate that was in force during
                    # the wait (flow.rate has already been updated by the
                    # rebalance that interrupted us).
                    elapsed = self.env.now - started
                    flow.remaining_mb = max(
                        0.0, flow.remaining_mb - elapsed * rate_during_wait
                    )
        finally:
            self._flows.remove(flow)
            self._rebalance()
        flow.stats.finished_at = self.env.now
        return flow.stats


def star_topology(
    env: Environment,
    center: str,
    leaves: Iterable[str],
    bandwidth: float,
    latency: float = 0.0,
    site: str = "",
) -> Network:
    """Convenience: build a star network (used heavily in tests).

    Every leaf is connected to *center* by its own link named
    ``"{center}-{leaf}"`` with identical bandwidth/latency.
    """
    net = Network(env)
    net.add_host(center, site=site)
    for leaf in leaves:
        net.add_host(leaf, site=site)
        net.add_link(f"{center}-{leaf}", center, leaf, bandwidth, latency)
    return net
