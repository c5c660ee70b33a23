"""The four workloads: what they build, how they are sized, and why.

Every builder takes the run seed and returns a ``harness.Workload``
ready for its first ``env.step()``.  The seed draws the arrival
schedule, the order in which sessions get their (dataset, VO), each
client's poll period, viewer phases and fault times; the *composition*
of a workload (how many sessions of each dataset, how many faults of
each kind) and the dataset contents are fixed, so total work and the
oracle trees do not depend on the seed.

Sizing: one untraced repetition is 3-6 s host on the 2-core reference
box, so that a ``--seconds 15`` run holds at least three repetitions and
the driver's 92 runs fit its 3420 s cap with room to spare.  The ISSUE's
sizing pass used 160/80 sessions (10 s repetitions) for a five-repetition
single command; the contract's per-run cap is what shrank them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Dict, List

from repro.analysis import counting, higgs
from repro.client.client import IPAClient
from repro.core.experiment import EVENTS_PER_MB
from repro.core.site import GridSite, SiteConfig
from repro.engine.runner import run_local
from repro.engine.sandbox import CodeBundle
from repro.federation import FederatedClient, Federation
from repro.resilience.retry import RetryPolicy
from repro.services.content import ContentStore

from harness import (
    HORIZON_AFTER_LAST_DUE_S,
    SESSION_DEADLINE_S,
    SessionRecord,
    Stage,
    Workload,
    drive_session,
    drive_viewer,
)

#: Table 2 of the paper, seconds: N -> (move whole, split, move parts, analysis).
#: Source: EXPERIMENTS.md "Table 2".
PAPER_TABLE2 = {
    1: (63, 120, 105, 330),
    2: (63, 120, 77, 287),
    4: (63, 115, 70, 190),
    8: (63, 117, 65, 148),
    16: (63, 124, 50, 78),
}
#: paper_sweep fails its correctness check above this mean error; today's
#: value is ~9.9 % (the paper's own N=2..8 analysis points sit above its
#: Amdahl curve, see EXPERIMENTS.md), so this catches a calibration break.
TABLE2_ERR_LIMIT_PCT = 12.5

#: Site shape shared by the federation and poll-storm workloads: bounded
#: service queues, 4 dispatch slots charging 2 ms each, tiered merge,
#: 50 ms coalescing window -- the settings under which polls and
#: publishes actually contend (ROADMAP item 1).
SERVING = dict(
    merge_fan_in=8,
    service_concurrency=4,
    service_dispatch_overhead_s=0.002,
    poll_coalesce_window_s=0.05,
)
VO_SHARES = {"atlas": 2.0, "cms": 1.0, "ilc": 1.0}
#: Clients back off and retry an admission refusal; exhausting this is a failure.
ADMISSION_RETRY = RetryPolicy(max_attempts=40, base_delay=2.0, multiplier=1.5, max_delay=30.0)


def _rng(seed: int, stream: int) -> random.Random:
    """Independent, PYTHONHASHSEED-proof random stream for one purpose."""
    return random.Random(seed * 1_000_003 + stream)


def _poisson_schedule(rng: random.Random, n: int, rate: float) -> List[float]:
    """Arrival times of a Poisson process conditioned on *n* arrivals in n/rate s.

    Given the count, Poisson arrivals are uniform order statistics; fixing
    the count and the window keeps the offered load the same for every
    seed, so seeds differ in burstiness only, not in how busy the sites are.
    """
    window = n / rate
    return sorted(rng.uniform(0.0, window) for _ in range(n))


def _events(size_mb: float, events_per_mb: float = EVENTS_PER_MB) -> int:
    return max(200, int(size_mb * events_per_mb))


def ref_key(spec: dict, n_engines: int, analysis: str) -> str:
    """Names everything a merged tree depends on (oracle + golden.json key)."""
    content = spec["content"]
    return (
        f"{content['kind']}-{content['seed']}:{spec['n_events']}ev/{spec['size_mb']:g}mb"
        f"|n={n_engines}|by-events|{analysis}"
    )


# -- fed_open_loop / chaos_recovery ------------------------------------


@dataclass(frozen=True)
class FedParams:
    n_sessions: int = 100
    rate_per_s: float = 0.06
    n_engines: int = 4
    n_workers: int = 16
    sizes_mb: tuple = (25.0, 50.0, 100.0, 200.0)
    poll_s: float = 2.0
    #: Below the paper's 85/MB so that engine compute stays under half the
    #: host time and the service planes remain visible (paper_sweep runs
    #: the full density).
    events_per_mb: float = 64.0
    pin_copies: int = 1
    #: Broker's cost of one active session at a candidate site, in seconds.
    #: At the default 1.0 a busy home site never looks worse than a 10 s
    #: migration at this load, so no seed would exercise SE-to-SE transfer.
    queue_weight_s: float = 5.0
    #: chaos only: (kind, site index) in firing order, see ``_start_faults``.
    faults: tuple = ()
    restore_after_s: float = 120.0


FED_OPEN_LOOP = FedParams()
CHAOS_RECOVERY = FedParams(
    n_sessions=80,
    rate_per_s=0.04,
    pin_copies=2,
    faults=(
        ("crash", 0), ("combiner-crash", 1), ("crash", 1), ("slow", 0),
        ("site-partition", 1), ("crash", 0), ("slow", 1), ("crash", 1),
    ),
)


def _fed_dataset_id(size_mb: float) -> str:
    return f"ilc-{int(size_mb)}mb"


def _build_federation(name: str, seed: int, p: FedParams) -> Workload:
    w = Workload(name)
    config = SiteConfig(
        n_workers=p.n_workers,
        max_concurrent_engines=p.n_workers,
        admission_queue_depth=64,
        vo_shares=VO_SHARES,
        **SERVING,
    )
    fed = Federation(
        n_sites=2, site_config=config, pin_copies=p.pin_copies, queue_weight_s=p.queue_weight_s
    )
    env = fed.env
    w.federation = fed
    w.sites = list(fed.sites.values())
    site_names = fed.site_names
    keys = {}
    for index, size in enumerate(p.sizes_mb):
        spec = dict(
            dataset_id=_fed_dataset_id(size),
            path=f"/ilc/bench/{int(size)}mb",
            size_mb=size,
            n_events=_events(size, p.events_per_mb),
            content={"kind": "ilc", "seed": 700 + index},
        )
        fed.register_dataset(home=site_names[index % len(site_names)], **spec)
        keys[size] = ref_key(spec, p.n_engines, "higgs")
        w.references[keys[size]] = dict(
            dataset=spec, n_engines=p.n_engines, source=higgs.SOURCE
        )

    # Fixed composition, seeded order: every seed runs the same sessions.
    vos = ["atlas", "atlas", "cms", "ilc"]
    mix = [
        (p.sizes_mb[i % len(p.sizes_mb)], vos[(i // len(p.sizes_mb)) % len(vos)])
        for i in range(p.n_sessions)
    ]
    _rng(seed, 1).shuffle(mix)
    due = _poisson_schedule(_rng(seed, 2), p.n_sessions, p.rate_per_s)
    jitter = _rng(seed, 3)
    procs_args = []
    for index, ((size, vo), t) in enumerate(zip(mix, due)):
        dataset = _fed_dataset_id(size)
        record = SessionRecord(
            index, dataset, p.n_engines, vo, t,
            poll_interval=p.poll_s * jitter.uniform(0.8, 1.2),
            reference=keys[size],
            n_events=_events(size, p.events_per_mb),
        )
        w.sessions.append(record)
        client = FederatedClient(fed, fed.enroll_user(f"/O=bench/CN=user-{index}", vo=vo))
        procs_args.append((record, client))

    def connect(client, record):
        return client.connect(
            n_engines=record.n_engines,
            dataset_hint=record.dataset,
            vo=record.vo,
            admission_retry=ADMISSION_RETRY,
        )

    def launch():
        procs = [
            w.spawn(
                env,
                drive_session(
                    w, record, env, client,
                    lambda c, record=record: connect(c, record),
                    higgs.SOURCE,
                ),
                session=record.index,
            )
            for record, client in procs_args
        ]
        if p.faults or p.pin_copies > 1:
            _start_faults(w, fed, procs_args, p, seed, due[-1])
        return procs

    w.stages.append(Stage(env, launch, horizon=due[-1] + HORIZON_AFTER_LAST_DUE_S))
    return w


def _start_faults(w: Workload, fed, clients, p: FedParams, seed: int, last_due: float) -> None:
    """Seeded fault plan: fixed kinds, order and slots; seeded victims and jitter.

    The faults of ``p.faults`` fire one per equal slot of the middle of
    the arrival window, in the listed order, each somewhere in the
    middle 40 % of its slot, so every seed sees the same storm at
    slightly different moments and on different workers.  ``hang``,
    ``link-down`` and ``service-crash`` are left out on purpose: under
    concurrent sessions they hit defects the README records, and the
    contract wants workloads on which no operation fails.
    """
    env = fed.env
    rng = _rng(seed, 4)

    def pin_everything():
        # Operator job at t=0, done before the first fault can fire.
        for placement in fed.catalog.placements():
            yield from fed.policy.ensure_pinned(placement.dataset_id)

    if p.pin_copies > 1:
        env.process(pin_everything())

    def analysing(site, with_results=False):
        """Session id of the longest-running session mid-analysis at *site*."""
        for record, client in clients:
            if client.site is site and record.t_run is not None and record.t_final is None:
                if record.t_first is not None or not with_results:
                    return client.session.session_id
        return None

    def crash(site, _worker):
        # Victim: a worker running an engine that is mid-analysis, so the
        # crash always costs a re-dispatch -- and never lands inside
        # create_session, which a crash hangs for good (README, defects).
        session_id = analysing(site)
        if session_id is None:
            return
        worker = rng.choice(site.registry.engines(session_id)).worker
        site.injector.crash_worker(worker)
        yield env.timeout(p.restore_after_s)
        site.injector.restore_worker(worker)

    def slow(site, worker):
        site.injector.slow_worker(worker, 4.0)
        yield env.timeout(p.restore_after_s)
        site.scheduler.element.worker(worker).slow_factor = 1.0

    def combiner(site, _worker):
        # Victim: a session that already published partial results (the
        # first minute of an analysis is engine start-up with nothing to
        # lose); wait for one rather than fire into the void.
        for _ in range(600):
            session_id = analysing(site, with_results=True)
            if session_id is not None:
                engine = site.registry.engines(session_id)[0].engine_id
                leaf = site.aida.combiner_of(session_id, engine)
                yield from site.injector.crash_combiner(session_id, leaf)
                return
            yield env.timeout(1.0)

    def partition(site, _worker):
        fed.partition_site(site.name)
        yield env.timeout(p.restore_after_s)
        fed.heal_site(site.name)
        # Operator sweep on heal: sessions whose clients failed over still
        # hold their engine slots (a session lifetime expires the WSRF
        # record but nothing reaps the engines) and would starve the
        # site's admission queue for good.
        owned = {c.session.session_id for _r, c in clients if c.site is site}
        for session_id in site.registry.sessions():
            if session_id not in owned:
                yield site.container.call("control", "close_session", {"session_id": session_id})

    actions = {"crash": crash, "slow": slow, "combiner-crash": combiner, "site-partition": partition}

    def fire(at, action, site, worker):
        yield env.timeout(at)
        yield from action(site, worker)

    start, stop = 0.25 * last_due, 0.85 * last_due
    slot = (stop - start) / max(1, len(p.faults))
    for index, (kind, site_index) in enumerate(p.faults):
        site = w.sites[site_index]
        at = start + slot * (index + rng.uniform(0.3, 0.7))
        worker = rng.choice(site.workers).name
        env.process(fire(at, actions[kind], site, worker))


def fed_open_loop(seed: int, params: FedParams = FED_OPEN_LOOP) -> Workload:
    return _build_federation("fed_open_loop", seed, params)


def chaos_recovery(seed: int, params: FedParams = CHAOS_RECOVERY) -> Workload:
    return _build_federation("chaos_recovery", seed, params)


# -- poll_storm --------------------------------------------------------


@dataclass(frozen=True)
class StormParams:
    n_sessions: int = 4
    n_engines: int = 16
    size_mb: float = 471.0
    events_per_mb: float = 100.0
    viewers_per_session: int = 64
    viewer_poll_s: float = 0.25
    owner_poll_s: float = 2.0
    start_spread_s: float = 20.0


POLL_STORM = StormParams()


def poll_storm(seed: int, params: StormParams = POLL_STORM) -> Workload:
    p = params
    w = Workload("poll_storm")
    site = GridSite(SiteConfig(n_workers=p.n_sessions * p.n_engines, **SERVING))
    env = site.env
    w.sites = [site]
    spec = dict(
        dataset_id="ilc-zh-dense",
        path="/ilc/bench/zh-dense",
        size_mb=p.size_mb,
        n_events=_events(p.size_mb, p.events_per_mb),
        content={"kind": "ilc", "seed": 710},
    )
    site.register_dataset(**spec)
    reference = ref_key(spec, p.n_engines, "counting")
    w.references[reference] = dict(
        dataset=spec, n_engines=p.n_engines, source=counting.SOURCE
    )
    rng = _rng(seed, 1)
    starts = sorted(rng.uniform(0.0, p.start_spread_s) for _ in range(p.n_sessions))
    procs_args = []
    for index, due in enumerate(starts):
        record = SessionRecord(
            index, spec["dataset_id"], p.n_engines, "ilc", due,
            poll_interval=p.owner_poll_s * rng.uniform(0.8, 1.2),
            reference=reference, n_events=spec["n_events"],
        )
        w.sessions.append(record)
        client = IPAClient(site, site.enroll_user(f"/O=bench/CN=owner-{index}"))
        phases = [rng.uniform(0.0, p.viewer_poll_s) for _ in range(p.viewers_per_session)]
        procs_args.append((record, client, phases))

    def connect(client, record):
        client.obtain_proxy()
        return client.connect(record.n_engines, dataset_hint=record.dataset)

    def launch():
        procs = []
        for record, client, phases in procs_args:

            def start_viewers(record, info, phases=phases):
                for v, phase in enumerate(phases):
                    w.spawn(
                        env,
                        drive_viewer(
                            w, env, site.container, record, info,
                            f"viewer-{record.index}-{v}", phase, p.viewer_poll_s,
                        ),
                        session=record.index,
                    )

            procs.append(
                w.spawn(
                    env,
                    drive_session(
                        w, record, env, client,
                        lambda c, record=record: connect(c, record),
                        counting.SOURCE,
                        on_run=start_viewers,
                    ),
                    session=record.index,
                )
            )
        return procs

    w.stages.append(Stage(env, launch, horizon=starts[-1] + HORIZON_AFTER_LAST_DUE_S))
    return w


# -- paper_sweep -------------------------------------------------------


@dataclass(frozen=True)
class SweepParams:
    table2_mb: float = 471.0
    table2_nodes: tuple = (1, 2, 4, 8, 16)
    lattice_mb: tuple = (50.0, 1884.0)
    lattice_nodes: tuple = (1, 4, 16)
    events_per_mb: float = EVENTS_PER_MB
    poll_s: float = 5.0
    local_mb: float = 471.0


PAPER_SWEEP = SweepParams()


def paper_sweep(seed: int, params: SweepParams = PAPER_SWEEP) -> Workload:
    """Closed loop, one client: each cell on a fresh ``GridSite``.

    Same phase sequence as ``repro.core.experiment.run_grid_experiment``
    (flat merge, default site), driven through the shared session driver
    so polls and kernel events are counted like everywhere else.
    """
    p = params
    w = Workload("paper_sweep")
    cells = [(p.table2_mb, n) for n in p.table2_nodes]
    cells += [(x, n) for x in p.lattice_mb for n in p.lattice_nodes]
    rng = _rng(seed, 1)
    rng.shuffle(cells)
    content = {"kind": "ilc", "seed": 500}
    for index, (size, nodes) in enumerate(cells):
        site = GridSite(SiteConfig(n_workers=nodes))
        w.sites.append(site)
        spec = dict(
            dataset_id="exp-dataset", path="/exp/dataset", size_mb=size,
            n_events=_events(size, p.events_per_mb), content=content,
        )
        site.register_dataset(metadata={"experiment": "ilc"}, **spec)
        record = SessionRecord(
            index, "exp-dataset", nodes, "ilc", 0.0,
            poll_interval=p.poll_s * rng.uniform(0.8, 1.2),
            reference=ref_key(spec, nodes, "higgs"), n_events=spec["n_events"],
        )
        w.sessions.append(record)
        client = IPAClient(site, site.enroll_user("/O=ILC/CN=experimenter"))

        def connect(client, record=record):
            client.obtain_proxy()
            return client.connect(record.n_engines)

        def launch(site=site, record=record, client=client, connect=connect):
            driver = drive_session(w, record, site.env, client, connect, higgs.SOURCE)
            return [w.spawn(site.env, driver, session=record.index)]

        w.stages.append(Stage(site.env, launch, horizon=SESSION_DEADLINE_S))

    local_events = _events(p.local_mb, p.events_per_mb)
    local = {}

    def local_baseline() -> int:
        """The paper's local run: same content, one pass, no grid."""
        batch = ContentStore().events_for(content, 0, local_events)
        local["tree"] = run_local(CodeBundle(higgs.SOURCE), batch)
        return local_events

    w.extra_work = local_baseline

    def check_bins() -> List[str]:
        """Grid-merged bin contents must equal the single-pass local ones.

        Float moment sums depend on the partition, so only bin heights
        and entry counts are compared; the full-tree check is the digest.
        """
        problems = []
        want = _bin_contents(local["tree"])
        for record in w.sessions:
            if record.failed or record.staged.size_mb != p.local_mb:
                continue
            if _bin_contents(record.tree) != want:
                problems.append(f"session {record.index}: bin contents differ from the local run")
        return problems

    def check_fidelity() -> List[str]:
        errs = []
        for record in w.sessions:
            if record.failed or record.staged.size_mb != p.table2_mb:
                continue
            paper = PAPER_TABLE2.get(record.n_engines)
            if paper is None:
                continue
            staged = record.staged
            ours = (
                staged.fetch_seconds + staged.split_seconds + staged.move_parts_seconds
                + (record.t_final - record.t_run)
            )
            errs.append(abs(ours - sum(paper)) / sum(paper) * 100.0)
        if not errs:
            return []
        w.fidelity_err_pct = sum(errs) / len(errs)
        if w.fidelity_err_pct > TABLE2_ERR_LIMIT_PCT:
            return [f"Table 2 mean error {w.fidelity_err_pct:.2f} % > {TABLE2_ERR_LIMIT_PCT} %"]
        return []

    w.checks = [check_bins, check_fidelity]
    return w


def _bin_contents(tree) -> Dict[str, list]:
    out = {}
    for path, obj in tree.walk():
        heights = getattr(obj, "heights", None)
        if callable(heights):
            out[path] = [float(h) for h in heights()]
        entries = getattr(obj, "entries", None)
        if entries is not None:
            out[path + "#entries"] = int(entries() if callable(entries) else entries)
    return out


# -- registry ----------------------------------------------------------

BUILDERS = {
    "fed_open_loop": fed_open_loop,
    "poll_storm": poll_storm,
    "paper_sweep": paper_sweep,
    "chaos_recovery": chaos_recovery,
}

#: Small-size parameters for the self-test (same code paths, seconds not minutes).
TINY = {
    "fed_open_loop": replace(FED_OPEN_LOOP, n_sessions=8, rate_per_s=0.2, sizes_mb=(25.0, 50.0)),
    "poll_storm": replace(POLL_STORM, n_sessions=2, n_engines=4, size_mb=60.0, viewers_per_session=4),
    "paper_sweep": replace(
        PAPER_SWEEP, table2_nodes=(1, 16), lattice_mb=(50.0,), lattice_nodes=(4,), events_per_mb=8.0
    ),
    # 600 s window: the pin-everything job (60 s here) must be over before the first fault slot.
    "chaos_recovery": replace(CHAOS_RECOVERY, n_sessions=12, rate_per_s=0.02, sizes_mb=(50.0, 100.0)),
}


def build(name: str, seed: int, tiny: bool = False) -> Workload:
    builder = BUILDERS[name]
    return builder(seed, TINY[name]) if tiny else builder(seed)
