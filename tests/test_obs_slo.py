"""The poll-latency objective: a read-time fold of the finished trace."""

import math

import pytest

from repro.obs import Observability
from repro.obs.dashboard import (
    MIN_SAMPLES,
    OBJECTIVE_S,
    POLL_SPAN,
    exact_quantile,
    poll_objective,
    slo_section,
)
from repro.obs.exporters import span_to_dict
from repro.services.envelope import ServiceContainer
from repro.sim import Environment


def poll(end, latency, name=POLL_SPAN, status="ok"):
    """One exported span record of a call that finished at *end*."""
    return {"name": name, "status": status, "start": end - latency, "end": end}


# -- the exact in-window reservoir -----------------------------------------

def test_reservoir_exact_quantiles():
    values = [1.0, 2.0, 3.0, 4.0]
    assert exact_quantile(values, 0.0) == 1.0
    assert exact_quantile(values, 1.0) == 4.0
    assert exact_quantile(values, 0.5) == 2.5  # interpolated median
    assert exact_quantile([7.0], 0.99) == 7.0
    assert math.isnan(exact_quantile([], 0.5))


def test_reservoir_window_pruning():
    spans = [poll(0.0, 100.0), poll(30.0, 1.0)]
    assert poll_objective(spans, now=59.9)["samples"] == 2
    # t=0 sits exactly on the horizon edge and is pruned (half-open window).
    row = poll_objective(spans, now=60.0)
    assert (row["samples"], row["p99"]) == (1, 1.0)
    row = poll_objective(spans, now=100.0)
    assert row["samples"] == 0 and math.isnan(row["p99"])
    assert (row["burn"], row["budget"]) == (0.0, 1.0)
    # Without a *now*, the row reads the window at the last completion.
    assert poll_objective(spans)["samples"] == 2


# -- breach transitions and budget -----------------------------------------

def test_fold_breach_and_recovery_transitions():
    slow = [poll(float(t), 5.0) for t in range(1, 8)]
    # Below MIN_SAMPLES nothing can breach, however slow.
    row = poll_objective(slow[: MIN_SAMPLES - 1])
    assert row["breaches"] == [] and row["breached"] is False
    row = poll_objective(slow[:MIN_SAMPLES])
    ((time, estimate, samples),) = row["breaches"]
    assert (time, estimate, samples) == (5.0, 5.0, MIN_SAMPLES)
    assert row["breached"] is True
    # Still breached: no second transition.
    assert len(poll_objective(slow)["breaches"]) == 1
    # The slow window expires; fast polls recover once enough are in it.
    fast = [poll(120.0 + t, 0.01) for t in range(MIN_SAMPLES)]
    assert poll_objective(slow + fast[:-1])["breached"] is True
    row = poll_objective(slow + fast)
    assert row["breached"] is False
    assert len(row["breaches"]) == 1
    assert row["p99"] == pytest.approx(0.01)


def test_fold_budget_and_burn():
    spans = [poll(float(t), 0.01) for t in range(9)] + [poll(9.0, 5.0)]
    row = poll_objective(spans)
    assert row["name"] == "poll-latency"
    assert row["samples"] == 10
    # 1 bad of 10 against a 1% budget -> burning 10x.
    assert row["burn"] == pytest.approx(10.0)
    assert row["budget"] == 0.0
    assert row["p99"] > OBJECTIVE_S and row["breached"] is True


def test_fold_ignores_unrelated_spans():
    spans = [poll(float(t), 100.0, name="call:ftp.transfer") for t in range(9)]
    spans += [poll(float(t), 100.0, status="error") for t in range(9)]
    row = poll_objective(spans)
    assert (row["samples"], row["breaches"], row["breached"]) == (0, [], False)
    (line,) = slo_section(row)
    assert "    -- / 0.250s  ok" in line and "(0 samples/60s)" in line


def test_abandoned_and_failed_polls_are_not_samples():
    env = Environment()
    obs = Observability(env, enabled=True)
    container = ServiceContainer(env, obs=obs)

    def merged(duration, fail=False):
        yield env.timeout(duration)
        if fail:
            raise ValueError("merge failed")
        return "tree"

    container.register("aida", {"merged": merged})

    def poller(duration, fail=False):
        try:
            yield from container.request(
                "aida", "merged", {"duration": duration, "fail": fail}
            )
        except ValueError:
            pass

    abandoned = poller(3.0)
    env.process(abandoned)
    env.process(poller(1.0, fail=True))
    served = env.process(poller(2.0))
    env.run(until=1.0)
    abandoned.close()  # the client went away mid-poll
    env.run(until=served)
    spans = [span_to_dict(s) for s in obs.tracer.finished_spans()]
    assert sorted(s["status"] for s in spans) == ["error", "error", "ok"]
    row = poll_objective(spans)
    assert row["samples"] == 1
    assert row["p99"] == pytest.approx(2.0 + 2 * 0.25)
