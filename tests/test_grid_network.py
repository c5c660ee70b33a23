"""Unit tests for the network topology and max-min fair flow model."""

import pytest

from repro.grid.network import Network, NetworkError, star_topology
from repro.sim import Environment


def make_pair(bandwidth=10.0, latency=0.0):
    env = Environment()
    net = Network(env)
    net.add_host("a")
    net.add_host("b")
    net.add_link("ab", "a", "b", bandwidth, latency)
    return env, net


# ---------------------------------------------------------------------------
# Topology
# ---------------------------------------------------------------------------

def test_duplicate_host_rejected():
    env = Environment()
    net = Network(env)
    net.add_host("a")
    with pytest.raises(NetworkError):
        net.add_host("a")


def test_duplicate_link_rejected():
    env, net = make_pair()
    with pytest.raises(NetworkError):
        net.add_link("ab", "a", "b", 1.0)


def test_link_to_unknown_host_rejected():
    env = Environment()
    net = Network(env)
    net.add_host("a")
    with pytest.raises(NetworkError):
        net.add_link("ax", "a", "x", 1.0)


def test_link_parameter_validation():
    env, net = make_pair()
    net.add_host("c")
    with pytest.raises(ValueError):
        net.add_link("bad", "a", "c", bandwidth=0)
    with pytest.raises(ValueError):
        net.add_link("bad", "a", "c", bandwidth=1, latency=-1)


def test_route_direct():
    env, net = make_pair()
    route = net.route("a", "b")
    assert [l.name for l in route.links] == ["ab"]
    assert route.bottleneck_bandwidth == 10.0


def test_route_same_host_is_empty():
    env, net = make_pair()
    route = net.route("a", "a")
    assert route.links == ()
    assert route.latency == 0


def test_route_multi_hop_shortest():
    env = Environment()
    net = Network(env)
    for name in "abcd":
        net.add_host(name)
    net.add_link("ab", "a", "b", 1.0, latency=0.1)
    net.add_link("bc", "b", "c", 1.0, latency=0.1)
    net.add_link("cd", "c", "d", 1.0, latency=0.1)
    net.add_link("ad", "a", "d", 1.0, latency=0.5)  # direct shortcut
    route = net.route("a", "d")
    assert [l.name for l in route.links] == ["ad"]  # fewest hops wins
    assert route.latency == 0.5


def test_route_unreachable_raises():
    env = Environment()
    net = Network(env)
    net.add_host("a")
    net.add_host("island")
    with pytest.raises(NetworkError):
        net.route("a", "island")


def test_route_unknown_host_raises():
    env, net = make_pair()
    with pytest.raises(NetworkError):
        net.route("a", "nope")


def test_route_cache_invalidated_by_new_link():
    env = Environment()
    net = Network(env)
    for name in "abc":
        net.add_host(name)
    net.add_link("ab", "a", "b", 1.0)
    net.add_link("bc", "b", "c", 1.0)
    assert len(net.route("a", "c").links) == 2
    net.add_link("ac", "a", "c", 1.0)
    assert len(net.route("a", "c").links) == 1


def test_star_topology_builder():
    env = Environment()
    net = star_topology(env, "hub", ["w1", "w2"], bandwidth=5.0)
    assert set(net.hosts) == {"hub", "w1", "w2"}
    assert len(net.route("w1", "w2").links) == 2


# ---------------------------------------------------------------------------
# Single transfers
# ---------------------------------------------------------------------------

def test_single_transfer_time_is_size_over_bandwidth():
    env, net = make_pair(bandwidth=10.0)
    proc = net.transfer("a", "b", 100.0)
    stats = env.run(until=proc)
    assert env.now == pytest.approx(10.0)
    assert stats.duration == pytest.approx(10.0)
    assert stats.mean_rate == pytest.approx(10.0)


def test_transfer_includes_latency_once():
    env, net = make_pair(bandwidth=10.0, latency=2.0)
    stats = env.run(until=net.transfer("a", "b", 100.0))
    assert stats.duration == pytest.approx(12.0)


def test_zero_byte_transfer_costs_latency_only():
    env, net = make_pair(bandwidth=10.0, latency=2.0)
    stats = env.run(until=net.transfer("a", "b", 0.0))
    assert stats.duration == pytest.approx(2.0)


def test_same_host_transfer_is_instant():
    env, net = make_pair()
    stats = env.run(until=net.transfer("a", "a", 50.0))
    assert stats.duration == 0.0


def test_negative_size_rejected():
    env, net = make_pair()
    with pytest.raises(ValueError):
        net.transfer("a", "b", -1.0)


def test_stream_cap_argument_limits_transfer():
    env, net = make_pair(bandwidth=10.0)
    stats = env.run(until=net.transfer("a", "b", 20.0, stream_cap=4.0))
    assert stats.duration == pytest.approx(5.0)


# ---------------------------------------------------------------------------
# Sharing / max-min fairness
# ---------------------------------------------------------------------------

def test_two_flows_share_link_equally():
    env, net = make_pair(bandwidth=10.0)
    p1 = net.transfer("a", "b", 50.0)
    p2 = net.transfer("a", "b", 50.0)
    env.run()
    # Each gets 5 MB/s for the whole time.
    assert p1.value.duration == pytest.approx(10.0)
    assert p2.value.duration == pytest.approx(10.0)


def test_flow_speeds_up_when_sharer_finishes():
    env, net = make_pair(bandwidth=10.0)
    p_small = net.transfer("a", "b", 10.0)  # done at t=2 while sharing
    p_big = net.transfer("a", "b", 90.0)
    env.run()
    # Shared 5 MB/s until t=2 (10 MB done each); then big flow gets 10 MB/s
    # for its remaining 80 MB -> 2 + 8 = 10 s.
    assert p_small.value.duration == pytest.approx(2.0)
    assert p_big.value.duration == pytest.approx(10.0)


def test_staggered_flow_start_rebalances_existing():
    env, net = make_pair(bandwidth=10.0)
    results = {}

    def scenario():
        first = net.transfer("a", "b", 40.0)
        yield env.timeout(2.0)  # first has moved 20 MB at 10 MB/s
        second = net.transfer("a", "b", 10.0)
        results["first"] = yield first
        results["second"] = yield second

    env.run(until=env.process(scenario()))
    # After t=2: both at 5 MB/s. second finishes at t=4 (10MB/5).
    # first has 20 remaining at t=2, does 10 by t=4, then 10 at full rate: t=5.
    assert results["second"].duration == pytest.approx(2.0)
    assert results["first"].duration == pytest.approx(5.0)


def test_maxmin_bottleneck_redistribution():
    # Two leaves behind one hub uplink; one flow also crosses a slow leaf link.
    env = Environment()
    net = Network(env)
    for name in ("src", "hub", "fast", "slow"):
        net.add_host(name)
    net.add_link("up", "src", "hub", bandwidth=10.0)
    net.add_link("f", "hub", "fast", bandwidth=10.0)
    net.add_link("s", "hub", "slow", bandwidth=2.0)
    p_slow = net.transfer("src", "slow", 20.0)
    p_fast = net.transfer("src", "fast", 80.0)
    env.run()
    # slow flow is bottlenecked at 2 MB/s; fast flow gets the remaining
    # 8 MB/s of the uplink -> finishes at t=10; slow at t=10 as well.
    assert p_slow.value.duration == pytest.approx(10.0)
    assert p_fast.value.duration == pytest.approx(10.0)


def test_n_flows_share_proportionally():
    env, net = make_pair(bandwidth=12.0)
    procs = [net.transfer("a", "b", 12.0) for _ in range(4)]
    env.run()
    for proc in procs:
        assert proc.value.duration == pytest.approx(4.0)  # 3 MB/s each


def test_active_flow_count_tracks_lifecycle():
    env, net = make_pair(bandwidth=10.0)
    counts = []

    def scenario():
        t = net.transfer("a", "b", 10.0)
        yield env.timeout(0.5)
        counts.append(net.active_flow_count)
        yield t
        counts.append(net.active_flow_count)

    env.run(until=env.process(scenario()))
    assert counts == [1, 0]


def test_transfer_conservation_many_flows():
    """Total bytes delivered equals bytes requested across random flows."""
    env = Environment()
    net = star_topology(env, "hub", [f"w{i}" for i in range(8)], bandwidth=7.0)
    sizes = [1.0, 2.5, 10.0, 0.5, 33.0, 4.0, 8.0, 16.0]
    procs = [
        net.transfer("hub", f"w{i}", size) for i, size in enumerate(sizes)
    ]
    env.run()
    delivered = sum(p.value.size_mb for p in procs)
    assert delivered == pytest.approx(sum(sizes))
    for proc, size in zip(procs, sizes):
        assert proc.value.duration >= size / 7.0 - 1e-9


def test_wan_vs_lan_asymmetry():
    """The paper's headline: LAN staging beats WAN download for large files."""
    env = Environment()
    net = Network(env)
    net.add_host("desktop")
    net.add_host("se")
    net.add_host("manager")
    net.add_link("wan", "desktop", "se", bandwidth=0.245)
    net.add_link("lan", "se", "manager", bandwidth=7.5)
    wan = net.transfer("se", "desktop", 471.0)
    lan = net.transfer("se", "manager", 471.0)
    env.run()
    assert wan.value.duration > 25 * lan.value.duration


def test_multihop_flows_share_intermediate_link():
    """Flows crossing a common middle hop are jointly bottlenecked there."""
    env = Environment()
    net = Network(env)
    for name in ("a", "b", "m1", "m2"):
        net.add_host(name)
    net.add_link("a-m1", "a", "m1", bandwidth=100.0)
    net.add_link("b-m1", "b", "m1", bandwidth=100.0)
    net.add_link("m1-m2", "m1", "m2", bandwidth=10.0)  # shared bottleneck
    p1 = net.transfer("a", "m2", 50.0)
    p2 = net.transfer("b", "m2", 50.0)
    env.run()
    # Both share the 10 MB/s middle link: 5 MB/s each -> 10 s each.
    assert p1.value.duration == pytest.approx(10.0)
    assert p2.value.duration == pytest.approx(10.0)


def test_multihop_latency_sums_over_route():
    env = Environment()
    net = Network(env)
    for name in ("a", "m", "b"):
        net.add_host(name)
    net.add_link("am", "a", "m", bandwidth=10.0, latency=0.3)
    net.add_link("mb", "m", "b", bandwidth=10.0, latency=0.2)
    stats = env.run(until=net.transfer("a", "b", 10.0))
    assert stats.duration == pytest.approx(0.5 + 1.0)
