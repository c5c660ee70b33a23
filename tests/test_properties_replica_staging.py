"""Property test: replica-aware staging never changes analysis results.

Under random interleavings of sessions, cache evictions and node kills
(with restore), every session's merged histograms
must be exactly equal — dict equality, float bits included — to a
reference run: the first session of a fresh site, whose fully cold stage
runs the §3.4 fetch/split/scatter pipeline without consulting the
catalog.  The replica layer may only change *when* bytes move, never
*which* events reach which analysis.

The counting analysis sums unit weights, so the merged heights are exact
in floating point regardless of the engine/part permutation the replica
alignment introduces — any mismatch is a real staleness or geometry bug,
not round-off.
"""

import random

import pytest

from repro.analysis import counting
from repro.client.client import IPAClient
from repro.core.site import GridSite, SiteConfig

N_WORKERS = 4
N_ENGINES = 3
N_OPS = 8


def build_site():
    site = GridSite(SiteConfig(n_workers=N_WORKERS))
    site.register_dataset(
        "ds", "/t/ds", size_mb=30.0, n_events=1500,
        content={"kind": "ilc", "seed": 7},
    )
    return site


def analyze_once(site, cred, dataset_hint=None):
    """Full session: stage, analyze, merge; returns (staged, tree dict)."""
    client = IPAClient(site, cred)
    out = {}

    def scenario():
        yield from client.obtain_proxy_and_connect(
            n_engines=N_ENGINES, dataset_hint=dataset_hint
        )
        out["staged"] = yield from client.select_dataset("ds")
        yield from client.upload_code(counting.SOURCE)
        yield from client.run()
        final = yield from client.wait_for_completion(poll_interval=3.0)
        out["tree"] = final.tree.to_dict()
        yield from client.close()

    site.env.run(until=site.env.process(scenario()))
    return out["staged"], out["tree"]


@pytest.mark.parametrize("seed", range(6))
def test_chaotic_replica_interleavings_preserve_results(seed):
    rng = random.Random(seed)

    # Reference: the same analysis as a fresh site's first, fully cold
    # session — the pipeline untouched by the catalog.
    ref_site = build_site()
    ref_staged, reference_tree = analyze_once(
        ref_site, ref_site.enroll_user("/CN=ref")
    )
    assert ref_staged.cold_parts == N_ENGINES
    assert not ref_staged.fetch_skipped

    site = build_site()
    cred = site.enroll_user("/CN=alice")
    rm = site.replicas
    workers = [w.name for w in site.workers]

    staged, tree = analyze_once(site, cred)  # cold priming stage
    assert tree == reference_tree

    for _ in range(N_OPS):
        op = rng.random()
        if op < 0.53:
            hint = "ds" if rng.random() < 0.5 else None
            staged, tree = analyze_once(site, cred, dataset_hint=hint)
            assert tree == reference_tree
            hits = staged.local_hits + staged.peer_hits + staged.se_hits
            assert hits + staged.cold_parts == N_ENGINES
        elif op < 0.76:
            # Scratch-purge one random cached part.
            victim = rng.choice(workers)
            keys = rm.caches[victim].keys()
            if keys:
                rm.caches[victim].remove(rng.choice(keys), reason="purge")
        else:
            # Kill and immediately restore a worker: its cache is wiped.
            victim = rng.choice(workers)
            site.injector.crash_worker(victim)
            assert len(rm.caches[victim]) == 0
            assert victim not in rm.catalog.hosts_with_dataset("ds")
            site.injector.restore_worker(victim)

    # Final sweep: one more warm-ish run must still match exactly.
    _, tree = analyze_once(site, cred, dataset_hint="ds")
    assert tree == reference_tree
