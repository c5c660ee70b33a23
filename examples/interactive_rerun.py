#!/usr/bin/env python
"""Interactive fine-tuning: run, pause, tweak a cut, reload, rewind, rerun.

Demonstrates the paper's definition of interactivity (§1, §3.6): the user
"can change their analysis algorithms on the fly", with "controls to stop
and restart an analysis that is in progress", and each iteration only
re-ships kilobytes of code instead of re-staging the dataset.

The scenario sweeps a visible-energy cut over three iterations, watching
the selection efficiency converge, then runs the final pass to completion.

Run:  python examples/interactive_rerun.py
"""

from repro.analysis import cuts
from repro.bench.tables import ComparisonTable, format_seconds
from repro.client import IPAClient
from repro.core import GridSite, SiteConfig


def main() -> None:
    site = GridSite(SiteConfig(n_workers=8))
    site.register_dataset(
        "ilc-tune",
        "/ilc/tune",
        size_mb=120.0,
        n_events=12_000,
        metadata={"experiment": "ilc"},
        content={"kind": "ilc", "seed": 31},
    )
    client = IPAClient(site, site.enroll_user("/O=ILC/CN=tuner"))
    env = site.env
    iterations = ComparisonTable(
        "Cut-tuning iterations",
        ["iteration", "min_energy [GeV]", "efficiency", "iteration time"],
    )

    def efficiency(tree) -> float:
        decision = tree.get("/cuts/decision")
        total = decision.entries
        return decision.bin_height(1) / total if total else float("nan")

    def scenario():
        yield from client.obtain_proxy_and_connect()
        staged = yield from client.select_dataset("ilc-tune")
        print(f"dataset staged once: {format_seconds(staged.stage_seconds)} "
              "(never again during tuning)")
        yield from client.upload_code(cuts.SOURCE, parameters={"min_energy": 0.0})

        thresholds = [0.0, 350.0, 480.0]
        for index, threshold in enumerate(thresholds):
            started = env.now
            if index > 0:
                # The interactive loop: new parameters, kB-scale reload,
                # rewind, rerun — no dataset movement.
                yield from client.reload_code(
                    parameters={"min_energy": threshold}
                )
                yield from client.rewind()
            yield from client.run()
            final = yield from client.wait_for_completion(poll_interval=5.0)
            iterations.add_row(
                index + 1,
                f"{threshold:.0f}",
                f"{efficiency(final.tree):.3f}",
                format_seconds(env.now - started),
            )

        # Demonstrate pause/step mid-run on a fresh pass.
        yield from client.rewind()
        yield from client.step(400)
        yield env.timeout(120.0)
        status = yield from client.status()
        print(f"after step(400): cursors = "
              f"{[e['cursor'] for e in status['engines']]} (all paused)")
        yield from client.run()
        yield from client.wait_for_completion(poll_interval=5.0)
        yield from client.close()

    env.run(until=env.process(scenario()))
    print(iterations.render())
    print("each tuning iteration costs seconds of code staging, not the "
          "minutes of dataset staging a batch workflow would pay")


if __name__ == "__main__":
    main()
