"""A closed session holds nothing; a live one holds views.

Leak audit over one ``GridSite`` and one two-site ``Federation``: sessions
are opened, run and closed one after another — among them a worker crash
with a takeover, a rewind and a close in the middle of the analysis — and
afterwards the garbage collector must reach no ``EngineHost``, no
``AnalysisEngine`` and no ``EventBatch`` other than the blocks of the
process-wide content cache, which every site's store shares.  A
``tracemalloc`` ratchet holds the bytes a closed session leaves behind.

Also here: what read-only views mean for an analysis that writes into the
batch it is handed.
"""

import gc
import tracemalloc

import numpy as np
import pytest

from repro.analysis import higgs
from repro.client.client import ClientError, IPAClient
from repro.core.site import GridSite, SiteConfig
from repro.dataset.events import EventBatch
from repro.dataset.generator import ILCEventGenerator
from repro.engine.base import Analysis, AnalysisError
from repro.engine.engine import AnalysisEngine
from repro.federation import FederatedClient, Federation
from repro.resilience.heartbeat import HEARTBEAT_TIMEOUT_S
from repro.services import content as content_module
from repro.services.content import BLOCK_EVENTS, MAX_CACHED_BLOCKS, ContentStore
from repro.services.engine_host import EngineHost

N_WORKERS = 4
#: 1000 events per engine = two compute chunks, so "mid-run" exists.
DATASET = dict(size_mb=40.0, n_events=4_000, content={"kind": "ilc", "seed": 11})

#: Retained bytes per closed session measured on this file's single-site
#: scenario (sessions 21-40 vs 1-20, tracemalloc, after gc): 8.9 kB, most
#: of it the durable journal and four finished ``Job`` handles.  It was
#: 699 kB while finished jobs and closed records kept their engines.
RETAINED_BYTES_PER_SESSION = 8_900

#: Session flavours by index modulo 20, so each half of the ratchet run
#: holds the same mix.
CRASH, REWIND, CLOSE_EARLY = 3, 7, 11


def run_session(env, site, client, connect, index):
    """One session of the flavour *index* selects (generator)."""
    flavour = index % 20
    info = yield from connect()
    yield from client.select_dataset("ds")
    yield from client.upload_code(higgs.SOURCE)
    yield from client.run()
    victim = None
    if flavour == CRASH:
        yield env.timeout(5.0)
        victim = site.registry.engines(info.session_id)[0].worker
        site.injector.crash_worker(victim)
    elif flavour == REWIND:
        yield env.timeout(5.0)
        yield from site.session_service.control(info.session_id, "rewind")
        yield from site.session_service.control(info.session_id, "run")
    if flavour == CLOSE_EARLY:
        yield env.timeout(5.0)
        assert site.scheduler.running_count == N_WORKERS  # still analysing
    else:
        final = yield from client.wait_for_completion(
            poll_interval=5.0, timeout=4000.0
        )
        assert final.progress.events_processed == DATASET["n_events"]
    yield from client.close()
    if victim is not None:
        site.injector.restore_worker(victim)
    return info.session_id


def reachable(*types):
    """Every live object of exactly one of *types*."""
    gc.collect()
    return [obj for obj in gc.get_objects() if type(obj) in types]


class Audit:
    """What the collector reaches now that it did not reach at the start.

    The census is process-wide, so whatever earlier tests left at module
    level is held (alive, ids stable) and subtracted.
    """

    TYPES = (EngineHost, AnalysisEngine, EventBatch)

    def __init__(self):
        self._before = reachable(*self.TYPES)

    def new(self, *types):
        known = {id(obj) for obj in self._before}
        return [obj for obj in reachable(*types) if id(obj) not in known]

    def assert_no_event_bytes(self):
        """No new ``EventBatch`` but cached blocks: none once the cache is emptied."""
        assert len(self.new(EventBatch)) <= MAX_CACHED_BLOCKS
        content_module._block.cache_clear()
        assert self.new(EventBatch) == []

    def assert_nothing_held(self, sites, session_ids):
        """Closed sessions left no engine, no job body and no event bytes."""
        assert self.new(EngineHost, AnalysisEngine) == []
        self.assert_no_event_bytes()
        for site in sites:
            assert site.scheduler.running_count == 0
            assert site.scheduler._running == {}
            assert site.session_service.active_sessions == 0
            for session_id in session_ids:
                assert site.aida.session_cache_keys(session_id) == []


def settle(env):
    """Let background loops asleep at the last close see its flag."""
    return env.timeout(2 * HEARTBEAT_TIMEOUT_S)


def test_single_site_sessions_leave_nothing_behind():
    audit = Audit()
    site = GridSite(SiteConfig(n_workers=N_WORKERS))
    site.register_dataset("ds", "/t/ds", **DATASET)
    env = site.env
    closed = []
    retained = []

    def scenario():
        for index in range(40):
            client = IPAClient(site, site.enroll_user(f"/CN=user{index}"))
            connect = lambda: client.obtain_proxy_and_connect(n_engines=N_WORKERS)
            closed.append((yield from run_session(env, site, client, connect, index)))
            if index in (19, 39):
                yield settle(env)
                gc.collect()
                retained.append(tracemalloc.get_traced_memory()[0])

    tracemalloc.start()
    try:
        env.run(until=env.process(scenario()))
    finally:
        tracemalloc.stop()
    assert len(closed) == 40
    audit.assert_nothing_held([site], closed)
    per_session = (retained[1] - retained[0]) / 20
    assert per_session < 2 * RETAINED_BYTES_PER_SESSION


def test_federation_sessions_leave_nothing_behind():
    audit = Audit()
    fed = Federation(n_sites=2, site_config=SiteConfig(n_workers=N_WORKERS))
    fed.register_dataset("ds", "/t/ds", home="site1", **DATASET)
    env = fed.env
    closed = []

    def scenario():
        for index in (0, CRASH, REWIND, CLOSE_EARLY, 1, 2):
            client = FederatedClient(fed, fed.enroll_user(f"/CN=user{index}"))
            name = "site1" if index % 2 else "site2"
            connect = lambda: client.connect(
                n_engines=N_WORKERS, dataset_hint="ds", site=name
            )
            closed.append(
                (yield from run_session(env, fed.site(name), client, connect, index))
            )
        yield settle(env)

    fed.run(until=env.process(scenario()))
    assert len(closed) == 6
    audit.assert_nothing_held(list(fed.sites.values()), closed)


def test_engine_counts_survive_the_end_of_its_job():
    site = GridSite(SiteConfig(n_workers=2))
    site.register_dataset("ds", "/t/ds", size_mb=20.0, n_events=2_000,
                          content={"kind": "ilc", "seed": 3})
    client = IPAClient(site, site.enroll_user("/CN=alice"))
    seen = {}

    def scenario():
        info = yield from client.obtain_proxy_and_connect(n_engines=2)
        yield from client.select_dataset("ds")
        yield from client.upload_code(higgs.SOURCE)
        yield from client.run()
        yield from client.wait_for_completion(poll_interval=5.0)
        record = site.session_service._sessions[info.session_id]
        seen["hosts"] = list(record["hosts"].values())
        seen["jobs"] = list(record["engine_jobs"].values())
        seen["before"] = [
            (h.engine.cursor, h.engine.total_events) for h in seen["hosts"]
        ]
        yield from client.close()
        assert info.session_id not in site.session_service._sessions
        with pytest.raises(Exception, match="no active session"):
            site.session_service.status(info.session_id)

    site.env.run(until=site.env.process(scenario()))
    assert seen["before"] == [(1000, 1000), (1000, 1000)]
    for host, counts in zip(seen["hosts"], seen["before"]):
        assert (host.engine.cursor, host.engine.total_events) == counts
        assert host.engine._data is None and not host._owned and not host._pending
    for job in seen["jobs"]:
        # A finished job answers for its outcome, not for its body.
        assert site.scheduler.job(job.id) is job
        assert (job.state, job.result, job.error) == ("completed", 1000, None)
        assert job.body is None and job._process is None


# -- an analysis that writes into its batch --------------------------------


class ScalesInPlace(Analysis):
    """Rescales energies in the batch it was handed (a bug: copy first)."""

    name = "scales-in-place"

    def start(self, tree):
        pass

    def process_batch(self, batch, tree):
        batch.e *= 1.02


SCALES_IN_PLACE_SOURCE = '''
class StagedScalesInPlace(Analysis):
    name = "scales-in-place"

    def start(self, tree):
        tree.put("/h", Histogram1D("h", bins=2, lower=0, upper=1))

    def process_batch(self, batch, tree):
        batch.e *= 1.02
'''


def test_native_analysis_cannot_write_into_a_staged_batch():
    store = ContentStore()
    content = {"kind": "ilc", "seed": 5}
    pristine = store.events_for(content, 0, 1_000).e.copy()
    engine = AnalysisEngine("engine-0@w0")
    engine.load_data(store.events_for(content, 0, 1_000))
    engine.load_analysis(ScalesInPlace())
    engine.controller.run()
    with pytest.raises(AnalysisError, match=r"engine-0@w0.*\[0, 500\).*read-only"):
        engine.process_chunk()
    assert np.array_equal(store.events_for(content, 0, 1_000).e, pristine)


def test_staged_analysis_cannot_write_into_the_shared_block():
    content = {"kind": "ilc", "seed": 5}

    def build():
        site = GridSite(SiteConfig(n_workers=2))
        site.register_dataset(
            "ds", "/t/ds", size_mb=20.0, n_events=2_000, content=content
        )
        return site

    def offender(site):
        client = IPAClient(site, site.enroll_user("/CN=mallory"))
        yield from client.obtain_proxy_and_connect(n_engines=2)
        yield from client.select_dataset("ds")
        yield from client.upload_code(SCALES_IN_PLACE_SOURCE)
        yield from client.run()
        with pytest.raises(ClientError, match=r"events \[0, 500\).*read-only"):
            yield from client.wait_for_completion(poll_interval=5.0)
        yield from client.close()

    def bystander(site):
        client = IPAClient(site, site.enroll_user("/CN=alice"))
        yield from client.obtain_proxy_and_connect(n_engines=2)
        yield from client.select_dataset("ds")
        yield from client.upload_code(higgs.SOURCE)
        yield from client.run()
        final = yield from client.wait_for_completion(poll_interval=5.0)
        yield from client.close()
        return final.tree.to_dict()

    audit = Audit()
    shared, fresh = build(), build()
    shared.env.run(until=shared.env.process(offender(shared)))
    # The failed jobs keep their error, but not (through its traceback)
    # the engines or the chunk that raised it.
    shared.env.run(until=settle(shared.env))
    assert audit.new(EngineHost, AnalysisEngine) == []
    assert len(audit.new(EventBatch)) <= 1  # the block, unless already cached
    failed = [shared.scheduler.job(job_id) for job_id in (1, 2)]
    assert [job.state for job in failed] == ["failed", "failed"]
    assert all("read-only" in str(job.error) for job in failed)
    after_offender = shared.env.run(until=shared.env.process(bystander(shared)))
    reference = fresh.env.run(until=fresh.env.process(bystander(fresh)))
    # Both sites read the very block the first session tried to scale; a
    # reader of its own regenerates it instead of hitting the cache.
    block = shared.content_store.events_for(content, 0, BLOCK_EVENTS)
    regenerated = ContentStore()
    regenerated.register_kind(
        "ilc-again", lambda _content, seed, n: ILCEventGenerator(seed=seed).generate(n)
    )
    again = regenerated.events_for({**content, "kind": "ilc-again"}, 0, BLOCK_EVENTS)
    assert not np.shares_memory(block.e, again.e)
    assert np.array_equal(block.e, again.e)
    assert after_offender == reference
    del block, again
    audit.assert_no_event_bytes()
