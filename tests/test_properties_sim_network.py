"""Property-based tests for the simulation kernel and the network model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.grid.network import Network, star_topology
from repro.sim import Environment, Resource, Store


# ---------------------------------------------------------------------------
# Kernel properties
# ---------------------------------------------------------------------------

delays = st.lists(
    st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
    min_size=1,
    max_size=30,
)


@given(delays)
def test_events_processed_in_time_order(delay_list):
    """The clock never goes backwards, whatever the schedule order."""
    env = Environment()
    observed = []

    def proc(delay):
        yield env.timeout(delay)
        observed.append(env.now)

    for delay in delay_list:
        env.process(proc(delay))
    env.run()
    assert observed == sorted(observed)
    assert len(observed) == len(delay_list)
    assert env.now == pytest.approx(max(delay_list))


@given(delays)
def test_simulation_deterministic(delay_list):
    """Two identical runs produce identical traces."""

    def trace():
        env = Environment()
        log = []

        def proc(index, delay):
            yield env.timeout(delay)
            log.append((index, env.now))

        for index, delay in enumerate(delay_list):
            env.process(proc(index, delay))
        env.run()
        return log

    assert trace() == trace()


@given(delays)
def test_same_time_events_fifo(delay_list):
    """Processes scheduled at the same instant run in creation order."""
    env = Environment()
    order = []

    def proc(index):
        yield env.timeout(1.0)
        order.append(index)

    for index in range(len(delay_list)):
        env.process(proc(index))
    env.run()
    assert order == list(range(len(delay_list)))


@given(
    st.integers(min_value=1, max_value=5),
    st.lists(
        st.floats(min_value=0.1, max_value=10.0, allow_nan=False),
        min_size=1,
        max_size=20,
    ),
)
def test_resource_never_exceeds_capacity(capacity, hold_times):
    env = Environment()
    resource = Resource(env, capacity=capacity)
    max_in_use = [0]

    def user(hold):
        with resource.request() as req:
            yield req
            max_in_use[0] = max(max_in_use[0], resource.count)
            yield env.timeout(hold)

    for hold in hold_times:
        env.process(user(hold))
    env.run()
    assert max_in_use[0] <= capacity
    assert resource.count == 0


@given(st.lists(st.integers(), max_size=30))
def test_store_preserves_fifo_order(items):
    env = Environment()
    store = Store(env)
    received = []

    def producer():
        for item in items:
            yield store.put(item)
            yield env.timeout(0.1)

    def consumer():
        for _ in items:
            value = yield store.get()
            received.append(value)

    env.process(producer())
    env.process(consumer())
    env.run()
    assert received == items


# ---------------------------------------------------------------------------
# Network properties
# ---------------------------------------------------------------------------

transfer_specs = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=7),           # destination leaf
        st.floats(min_value=0.1, max_value=50.0, allow_nan=False),  # MB
        st.floats(min_value=0.0, max_value=5.0, allow_nan=False),   # start delay
    ),
    min_size=1,
    max_size=15,
)


@given(transfer_specs)
@settings(max_examples=50, deadline=None)
def test_all_transfers_complete_and_conserve_bytes(specs):
    env = Environment()
    net = star_topology(env, "hub", [f"w{i}" for i in range(8)], bandwidth=10.0)
    stats = []

    def launcher(dest, size, delay):
        yield env.timeout(delay)
        result = yield net.transfer("hub", f"w{dest}", size)
        stats.append(result)

    for dest, size, delay in specs:
        env.process(launcher(dest, size, delay))
    env.run()
    assert len(stats) == len(specs)
    assert sum(s.size_mb for s in stats) == pytest.approx(
        sum(size for _, size, _ in specs)
    )
    assert net.active_flow_count == 0


@given(transfer_specs)
@settings(max_examples=50, deadline=None)
def test_transfer_duration_bounded_below_by_ideal(specs):
    """No flow finishes faster than size / bottleneck-bandwidth."""
    env = Environment()
    net = star_topology(env, "hub", [f"w{i}" for i in range(8)], bandwidth=10.0)
    procs = []

    def launcher(dest, size, delay):
        yield env.timeout(delay)
        result = yield net.transfer("hub", f"w{dest}", size)
        return result

    for dest, size, delay in specs:
        procs.append(env.process(launcher(dest, size, delay)))
    env.run()
    for proc, (_, size, _) in zip(procs, specs):
        assert proc.value.duration >= size / 10.0 - 1e-9


@given(transfer_specs)
@settings(max_examples=30, deadline=None)
def test_total_time_bounded_by_serialized_transfer(specs):
    """Max-min sharing can never be slower than full serialization."""
    env = Environment()
    net = star_topology(env, "hub", [f"w{i}" for i in range(8)], bandwidth=10.0)
    finished = []

    for dest, size, delay in specs:

        def launcher(dest=dest, size=size, delay=delay):
            yield env.timeout(delay)
            stats = yield net.transfer("hub", f"w{dest}", size)
            finished.append(stats.finished_at)

        env.process(launcher())
    env.run()
    # Note: env.now itself may drain past the last completion because
    # interrupted flows leave orphaned (harmless) timeouts on the heap;
    # the bound applies to actual completion times.
    serialized = max(d for _, _, d in specs) + sum(
        size for _, size, _ in specs
    ) / 10.0
    assert max(finished) <= serialized + 1e-6


@given(
    st.floats(min_value=0.5, max_value=100.0, allow_nan=False),
    st.integers(min_value=1, max_value=6),
)
def test_equal_flows_finish_simultaneously(size, n_flows):
    """Identical flows sharing one link all finish at the same instant."""
    env = Environment()
    net = Network(env)
    net.add_host("a")
    net.add_host("b")
    net.add_link("ab", "a", "b", bandwidth=10.0)
    procs = [net.transfer("a", "b", size) for _ in range(n_flows)]
    env.run()
    durations = [p.value.duration for p in procs]
    assert max(durations) == pytest.approx(min(durations))
    assert durations[0] == pytest.approx(size * n_flows / 10.0)
