"""A service crash fences the operations that were in flight across it.

Every session transition goes through ``SessionService._commit``, and
``_commit`` refuses a record from an operation that began in an earlier
service incarnation: the operation raises ``ServiceUnavailable`` and its
record never reaches the journal.  So a stage that was fetching when the
service died sends no ``load_data``, an upload that was shipping sends no
``load_code``, a close tears down nothing of the recovered session and a
create cancels the engines it started.  The client reconnects and repeats
the operation, and the analysis ends on the tree of a run that never
crashed.
"""

import pytest

from repro.analysis import higgs
from repro.client.client import IPAClient
from repro.core.site import GridSite, SiteConfig
from repro.resilience.faults import ServiceUnavailable
from repro.resilience.journal import SessionJournal

DATASET = "ds-fenced"


def build_site():
    site = GridSite(SiteConfig(n_workers=4))
    site.register_dataset(
        DATASET, "/t/ds-fenced", size_mb=60.0, n_events=1000,
        content={"kind": "ilc", "seed": 5151},
    )
    return site


def finish(client, out):
    """Upload, run to completion and close (generator); the final tree
    lands in ``out["tree"]``."""
    yield from client.upload_code(higgs.SOURCE)
    yield from client.run()
    final = yield from client.wait_for_completion(poll_interval=5.0)
    out["tree"] = final.tree.to_dict()
    yield from client.close()


@pytest.fixture(scope="module")
def no_crash_tree():
    site = build_site()
    client = IPAClient(site, site.enroll_user("/CN=alice"))
    out = {}

    def scenario():
        yield from client.obtain_proxy_and_connect(n_engines=2)
        yield from client.select_dataset(DATASET)
        yield from finish(client, out)

    site.env.run(until=site.env.process(scenario()))
    return out["tree"]


def crash_during(site, operation, in_flight):
    """Run *operation* until *in_flight()* holds, crash and restart the
    services, and wait for the operation to end (generator).  Returns the
    exception it raised (or ``None``) and the journal records that landed
    after the crash."""
    proc = site.env.process(operation)
    while not in_flight():
        yield site.env.timeout(0.5)
    assert proc.is_alive
    site.injector.crash_services()
    records = {sid: len(SessionJournal(site.durable_store, sid).records())
               for sid in SessionJournal.session_ids(site.durable_store)}
    yield site.injector.restart_services()
    try:
        yield proc
        raised = None
    except Exception as exc:
        raised = exc
    late = {sid: SessionJournal(site.durable_store, sid).records()[count:]
            for sid, count in records.items()}
    return raised, late


def test_a_stage_across_a_service_crash_is_refused_and_restages(no_crash_tree):
    site = build_site()
    client = IPAClient(site, site.enroll_user("/CN=alice"))
    out = {}

    def scenario():
        info = yield from client.obtain_proxy_and_connect(n_engines=2)
        out["raised"], out["late"] = yield from crash_during(
            site, client.select_dataset(DATASET),
            lambda: site.session_service.stager._fetches,
        )
        # No load_data reached an engine from the dead incarnation.
        session = site.session_service._sessions[info.session_id]
        out["loaded"] = [host.engine.total_events for host in session["hosts"].values()]
        out["dataset"] = session["state"].dataset
        yield from client.reconnect()
        out["staged"] = yield from client.select_dataset(DATASET)
        yield from finish(client, out)

    site.env.run(until=site.env.process(scenario()))
    assert isinstance(out["raised"], ServiceUnavailable)
    assert out["late"] == {"session-1": []}
    assert out["loaded"] == [0, 0]
    assert out["dataset"] is None
    # The whole file reached the SE before the restage: it is not fetched again.
    assert out["staged"].fetch_skipped
    assert out["tree"] == no_crash_tree


def test_an_upload_across_a_service_crash_is_refused_and_reuploads(no_crash_tree):
    site = build_site()
    client = IPAClient(site, site.enroll_user("/CN=alice"))
    out = {}

    def scenario():
        yield from client.obtain_proxy_and_connect(n_engines=2)
        yield from client.select_dataset(DATASET)
        started = site.env.now
        out["raised"], out["late"] = yield from crash_during(
            site, client.upload_code(higgs.SOURCE),
            lambda: site.env.now - started >= 2.0,
        )
        yield from client.reconnect()
        yield from finish(client, out)

    site.env.run(until=site.env.process(scenario()))
    assert isinstance(out["raised"], ServiceUnavailable)
    assert out["late"] == {"session-1": []}
    assert out["tree"] == no_crash_tree


def test_a_close_across_a_service_crash_tears_down_nothing_and_is_repeated():
    site = build_site()
    client = IPAClient(site, site.enroll_user("/CN=alice"))
    out = {}

    def scenario():
        info = yield from client.obtain_proxy_and_connect(n_engines=2)
        yield from client.select_dataset(DATASET)
        yield from client.upload_code(higgs.SOURCE)
        yield from client.run()
        yield site.env.timeout(3.0)  # mid-chunk: the engines read shutdown late
        started = site.env.now
        out["raised"], out["late"] = yield from crash_during(
            site, client.close(), lambda: site.env.now - started >= 0.5,
        )
        yield from client.reconnect()
        # The refused close dropped nothing of the recovered session.
        out["expected"] = (yield from client.poll()).progress.expected_engines
        out["closed"] = yield from client.close()
        out["journal"] = SessionJournal(site.durable_store, info.session_id).records()
        out["busy"] = [worker.name for worker in site.workers if worker.busy]

    site.env.run(until=site.env.process(scenario()))
    assert isinstance(out["raised"], ServiceUnavailable)
    assert out["late"] == {"session-1": []}
    assert out["expected"] == 2
    assert out["closed"] is True
    assert out["journal"][-1]["type"] == "closed"
    assert site.session_service._sessions == {}
    assert out["busy"] == []


def test_a_session_created_after_a_crash_takes_a_fresh_id(no_crash_tree):
    # Recovery adopts every journalled id, a closed session's too: reusing
    # one would append to the closed journal and land in a merge the
    # recovered AIDA manager holds as dropped.
    site = build_site()
    clients = [IPAClient(site, site.enroll_user(f"/CN=user{i}")) for i in range(3)]
    out = {}

    def scenario():
        ids = []
        for client in clients[:2]:
            ids.append((yield from client.obtain_proxy_and_connect(n_engines=1)).session_id)
        yield from clients[1].close()
        site.injector.crash_services()
        yield site.injector.restart_services()
        info = yield from clients[2].obtain_proxy_and_connect(n_engines=2)
        assert info.session_id not in ids
        yield from clients[2].select_dataset(DATASET)
        yield from finish(clients[2], out)

    site.env.run(until=site.env.process(scenario()))
    assert out["tree"] == no_crash_tree


def test_a_create_across_a_service_crash_is_refused_and_frees_its_workers():
    site = build_site()
    client = IPAClient(site, site.enroll_user("/CN=alice"))
    out = {}

    def scenario():
        out["raised"], out["late"] = yield from crash_during(
            site, client.obtain_proxy_and_connect(n_engines=2),
            lambda: site.env.now >= 1.0,
        )
        yield site.env.timeout(60.0)
        out["busy"] = [worker.name for worker in site.workers if worker.busy]

    site.env.run(until=site.env.process(scenario()))
    assert isinstance(out["raised"], ServiceUnavailable)
    # No journal names the session, and no engine of it holds a worker.
    assert out["late"] == {}
    assert SessionJournal.session_ids(site.durable_store) == []
    assert site.session_service._sessions == {}
    assert out["busy"] == []
