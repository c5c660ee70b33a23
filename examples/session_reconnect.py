#!/usr/bin/env python
"""Service-crash recovery: survive a manager restart mid-analysis.

Runs the bundled Higgs search on a 4-worker site, then — mid-run —
crashes the manager-node service processes (SessionService + AIDA
manager).  Their volatile state is wiped and the client's session token
is revoked, but the write-ahead session journal and the periodic merge
checkpoints live on a durable store.  After a minute of downtime the
services restart, replay the journal, restore the last committed
checkpoint, re-bind the still-running engines, and ask each one for a
fresh keyframe; the client reconnects with backoff and the analysis
finishes with results identical to an uninterrupted run.

Run:  python examples/session_reconnect.py
"""

from repro.analysis import higgs
from repro.client import IPAClient
from repro.core import GridSite, SiteConfig


def main() -> None:
    # checkpoint_every_s controls how often each session's merge state is
    # checkpointed; the journal is written ahead of every state change.
    site = GridSite(SiteConfig(n_workers=4, checkpoint_every_s=10.0))
    site.register_dataset(
        "ilc-demo",
        "/ilc/demo",
        size_mb=50.0,
        n_events=5_000,
        metadata={"experiment": "ilc", "energy": 500},
        content={"kind": "ilc", "seed": 2006},
    )
    client = IPAClient(site, site.enroll_user("/O=ILC/CN=reconnect-user"))

    def scenario():
        info = yield from client.obtain_proxy_and_connect()
        yield from client.select_dataset("ilc-demo")
        yield from client.upload_code(higgs.SOURCE)
        yield from client.run()

        # Let the run get genuinely mid-flight: every engine has merged
        # at least one partial snapshot.
        while site.aida.snapshot_count(info.session_id) < info.n_engines:
            yield site.env.timeout(1.0)
        # One checkpoint period more: the last committed checkpoint then
        # holds those partial results, and the restart restores them.
        yield site.env.timeout(10.0)
        print(f"t={site.env.now:7.1f} s  CRASH: manager services die "
              f"({site.aida.snapshot_count(info.session_id)} snapshots merged)")
        site.injector.crash_services()

        # A minute of downtime; the engines keep crunching on the workers
        # (their snapshot submissions simply never arrive).
        yield site.env.timeout(60.0)
        yield site.injector.restart_services()
        print(f"t={site.env.now:7.1f} s  RESTART: journal replayed, "
              f"checkpoint restored, engines republishing")

        # Reconnect re-authenticates and re-issues the polling token.
        refreshed = yield from client.reconnect()
        print(f"t={site.env.now:7.1f} s  reconnected to "
              f"{refreshed.session_id} ({refreshed.n_engines} engines)")

        final = yield from client.wait_for_completion(
            poll_interval=5.0, reconnect=True
        )
        mass = final.tree.get("/higgs/dijet_mass")
        print(f"t={site.env.now:7.1f} s  complete: {mass.entries} candidates, "
              f"spectrum mean {mass.mean:.1f} GeV")
        yield from client.close()

    site.env.run(until=site.env.process(scenario()))
    print(f"whole session took {site.env.now:.1f} simulated seconds, "
          f"crash included")


if __name__ == "__main__":
    main()
