"""A dataset crosses the WAN once per site: concurrent stages share a fetch.

"Locate and transfer large dataset file" (Fig. 1) is the first and most
expensive staging step.  When several sessions stage the same
origin-hosted dataset at once, the first stage (the leader) moves the
whole file to the SE and every later stage that finds that fetch in
flight (a joiner) waits on it instead of starting a second transfer: a
joiner moves no WAN bytes, charges its wait to ``fetch_seconds`` and
shares the leader's outcome, failure included.
"""

import pytest

from repro.analysis import higgs
from repro.client.client import IPAClient
from repro.core.site import GridSite, SiteConfig
from repro.grid.transfer import TransferError
from repro.resilience.faults import ServiceUnavailable
from repro.resilience.journal import SessionJournal

DATASET = "ds-shared"
SIZE_MB = 120.0
N_EVENTS = 2000


def build_site(n_workers=8):
    site = GridSite(SiteConfig(n_workers=n_workers))
    site.register_dataset(
        DATASET, "/t/ds-shared", size_mb=SIZE_MB, n_events=N_EVENTS,
        content={"kind": "ilc", "seed": 4242},
    )
    return site


def watch(site):
    """Record every ``.whole`` transfer and every stage's fetch entry.

    Returns ``(wholes, entered)``: the transfer processes of the whole
    file, and the time each stage reached the fetch.
    """
    wholes, entered = [], []
    ftp, stager = site.ftp, site.session_service.stager
    transfer_file, fetch_whole = ftp.transfer_file, stager._fetch_whole

    def counted_transfer(src, dst, name, *args, **kwargs):
        proc = transfer_file(src, dst, name, *args, **kwargs)
        if name.endswith(".whole"):
            wholes.append(proc)
        return proc

    def counted_fetch(location):
        entered.append(site.env.now)
        return (yield from fetch_whole(location))

    ftp.transfer_file = counted_transfer
    stager._fetch_whole = counted_fetch
    return wholes, entered


def analysis_session(site, client, out, n_engines=2):
    yield from client.obtain_proxy_and_connect(n_engines=n_engines)
    out["staged"] = yield from client.select_dataset(DATASET)
    yield from client.upload_code(higgs.SOURCE)
    yield from client.run()
    final = yield from client.wait_for_completion(poll_interval=5.0)
    out["tree"] = final.tree.to_dict()
    yield from client.close()


def test_concurrent_stages_share_one_whole_file_fetch():
    solo_site = build_site()
    solo = {}
    solo_site.env.run(until=solo_site.env.process(analysis_session(
        solo_site, IPAClient(solo_site, solo_site.enroll_user("/CN=solo")), solo
    )))

    site = build_site()
    wholes, entered = watch(site)
    outs = [{} for _ in range(4)]
    procs = [
        site.env.process(analysis_session(
            site, IPAClient(site, site.enroll_user(f"/CN=user{i}")), out
        ))
        for i, out in enumerate(outs)
    ]
    site.env.run(until=site.env.all_of(procs))

    # One WAN transfer of the whole file, entered by all four stages
    # before it ended.
    assert len(wholes) == 1
    fetch_end = wholes[0].value.finished_at
    assert len(entered) == 4
    assert all(at < fetch_end for at in entered)
    staged = [out["staged"] for out in outs]
    # Each stage's fetch phase runs from its entry to the leader's end.
    assert sorted(fetch_end - s.fetch_seconds for s in staged) == pytest.approx(
        sorted(entered), abs=1e-9
    )
    # The leader moved the file; the three joiners count a whole-file hit.
    assert sorted(s.fetch_skipped for s in staged) == [False, True, True, True]
    assert all(s.fetch_seconds > 0 for s in staged)
    assert site.session_service.stager._fetches == {}
    assert site.replicas.has_whole(site.locator.locate(DATASET))
    for out in outs:
        assert out["tree"] == solo["tree"]


def test_a_cut_link_fails_the_leader_and_every_joiner_with_its_error():
    site = build_site(n_workers=6)
    wholes, entered = watch(site)
    stager = site.session_service.stager
    clients = [IPAClient(site, site.enroll_user(f"/CN=user{i}")) for i in range(3)]
    errors, out = [], {}

    def stage(client):
        yield from client.obtain_proxy_and_connect(n_engines=2)
        try:
            yield from client.select_dataset(DATASET)
        except TransferError as exc:
            errors.append((exc, site.env.now))

    def cut_while_three_wait():
        while len(entered) < 3:
            yield site.env.timeout(0.5)
        out["cut"] = site.network.fail_links_of("repository")

    procs = [site.env.process(stage(client)) for client in clients]
    site.env.process(cut_while_three_wait())
    site.env.run(until=site.env.all_of(procs))

    # One transfer, one retry budget, one error shared by all three.
    assert len(wholes) == 1
    assert len(errors) == 3
    assert len({id(exc) for exc, _at in errors}) == 1
    assert len({at for _exc, at in errors}) == 1
    assert stager._fetches == {}
    assert not site.replicas.has_whole(site.locator.locate(DATASET))

    # Healed, a later stage fetches again and succeeds.
    for name in out["cut"]:
        site.network.restore_link(name)
    later = {}

    def restage():
        later["staged"] = yield from clients[0].select_dataset(DATASET)

    site.env.run(until=site.env.process(restage()))
    assert len(wholes) == 2
    assert not later["staged"].fetch_skipped
    assert later["staged"].fetch_seconds > 0
    assert stager._fetches == {}


def test_a_service_crash_during_a_shared_fetch_leaves_no_entry_behind():
    site = build_site(n_workers=6)
    wholes, entered = watch(site)
    stager = site.session_service.stager
    clients = [IPAClient(site, site.enroll_user(f"/CN=user{i}")) for i in range(3)]
    out = {"lost": 0}

    def journal_length(client):
        return len(SessionJournal(site.durable_store, client.session.session_id).records())

    def stage(client):
        yield from client.obtain_proxy_and_connect(n_engines=2)
        try:
            yield from client.select_dataset(DATASET)
        except ServiceUnavailable:  # began in the crashed incarnation
            out["lost"] += 1
        # The refused stage journalled nothing after the crash.
        out.setdefault("late", []).append(journal_length(client) - out["at_crash"][client])

    def crash_during_fetch():
        while len(entered) < 2:
            yield site.env.timeout(0.5)
        site.injector.crash_services()
        out["at_crash"] = {client: journal_length(client) for client in clients[:2]}
        yield site.injector.restart_services()
        # A stage after the restart joins the transfer still in flight.
        out["in_flight"] = sum(whole.is_alive for whole in wholes)
        yield from clients[2].obtain_proxy_and_connect(n_engines=2)
        out["after_restart"] = yield from clients[2].select_dataset(DATASET)

    procs = [site.env.process(stage(client)) for client in clients[:2]]
    procs.append(site.env.process(crash_during_fetch()))
    site.env.run(until=site.env.all_of(procs))
    assert out["in_flight"] == 1
    assert out["lost"] == 2
    assert out["late"] == [0, 0]
    assert out["after_restart"].fetch_skipped
    assert out["after_restart"].fetch_seconds > 0
    # The transfer ran out and took its entry with it.
    assert len(wholes) == 1
    assert stager._fetches == {}

    restaged = []

    def restage(client):
        yield from client.reconnect()
        restaged.append((yield from client.select_dataset(DATASET)))
        yield from client.close()

    site.env.run(until=site.env.all_of(
        [site.env.process(restage(client)) for client in clients[:2]]
    ))
    # The dataset crossed the WAN once: the restages read the SE copy.
    assert len(wholes) == 1
    assert [s.fetch_skipped for s in restaged] == [True, True]
    assert [s.fetch_seconds for s in restaged] == [0.0, 0.0]
    assert stager._fetches == {}
