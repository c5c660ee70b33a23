"""Multi-site federation: brokering, migration, partition failover.

The acceptance bar for the federation subsystem is bit-identical
analysis: wherever the broker lands a session — home site, migrated
remote site, or a failover target mid-partition — the merged AIDA tree
must equal the single-site reference exactly (dict equality), and warm
repeats at a migrated site must skip the WAN fetch entirely.
"""

import pytest

from repro.analysis import higgs
from repro.client import IPAClient
from repro.core import GridSite, SiteConfig
from repro.federation import (
    FederatedClient,
    Federation,
    FederationError,
)
from repro.obs.dashboard import render_board, sites_section

DATASET = dict(
    dataset_id="ilc-fed",
    path="/ilc/fed",
    size_mb=50.0,
    n_events=5_000,
    content={"kind": "ilc", "seed": 7},
)


def small_config(**overrides):
    return SiteConfig(n_workers=4, **overrides)


def single_site_reference(config=None):
    """Merged tree of the same analysis on a lone site (SE-resident)."""
    site = GridSite(config or small_config())
    site.register_dataset(
        DATASET["dataset_id"],
        DATASET["path"],
        size_mb=DATASET["size_mb"],
        n_events=DATASET["n_events"],
        content=DATASET["content"],
        origin_host=None,
    )
    credential = site.enroll_user("/O=ILC/CN=ref-user")
    client = IPAClient(site, credential)
    out = {}

    def scenario():
        yield from client.obtain_proxy_and_connect(
            dataset_hint=DATASET["dataset_id"]
        )
        yield from client.select_dataset(DATASET["dataset_id"])
        yield from client.upload_code(higgs.SOURCE)
        yield from client.run()
        final = yield from client.wait_for_completion(poll_interval=5.0)
        out["tree"] = final.tree.to_dict()
        yield from client.close()

    site.env.run(until=site.env.process(scenario()))
    return out["tree"]


def build_federation(n_sites=2, **fed_kwargs):
    config = fed_kwargs.pop("site_config", small_config())
    fed = Federation(n_sites=n_sites, site_config=config, **fed_kwargs)
    fed.register_dataset(
        DATASET["dataset_id"],
        DATASET["path"],
        size_mb=DATASET["size_mb"],
        n_events=DATASET["n_events"],
        content=DATASET["content"],
        home="site1",
    )
    return fed


def drive_session(fed, client, site=None, migrate=True, out=None):
    """Full workflow via the federated client; returns merged tree dict."""
    out = out if out is not None else {}

    def scenario():
        yield from client.connect(
            dataset_hint=DATASET["dataset_id"], site=site, migrate=migrate
        )
        staged = yield from client.select_dataset(DATASET["dataset_id"])
        out["fetch_skipped"] = staged.fetch_skipped
        out["site"] = client.site_name
        yield from client.upload_code(higgs.SOURCE)
        yield from client.run()
        final = yield from client.wait_for_completion(poll_interval=5.0)
        out["tree"] = final.tree.to_dict()
        yield from client.close()

    fed.run(until=fed.env.process(scenario()))
    return out


# -- topology -------------------------------------------------------------

def test_sites_share_env_network_and_ca():
    fed = Federation(n_sites=3, site_config=small_config())
    assert fed.site_names == ["site1", "site2", "site3"]
    for site in fed.sites.values():
        assert site.env is fed.env
        assert site.network is fed.network
        assert site.ca is fed.ca
    # pairwise SE-to-SE WAN links exist
    for a, b in [("site1", "site2"), ("site1", "site3"), ("site2", "site3")]:
        name = f"wan-{a}-se-{b}-se"
        link = fed.network.links[name]
        assert link.bandwidth == fed.calibration.intersite_wan_mbps


def test_site_hosts_carry_site_labels():
    fed = Federation(n_sites=2, site_config=small_config())
    assert fed.network.hosts["site1-se"].site == "site1"
    assert fed.network.hosts["site2-w0"].site == "site2"
    assert fed.network.hosts["desktop"].site == "home"
    assert fed.network.hosts["repository"].site == "archive"


def test_duplicate_site_names_rejected():
    with pytest.raises(FederationError):
        Federation(site_names=["a", "a"], site_config=small_config())


def test_enroll_user_is_valid_at_every_site():
    fed = Federation(n_sites=2, site_config=small_config())
    credential = fed.enroll_user("/O=ILC/CN=roamer")
    for site in fed.sites.values():
        assert site.authz.vo_of(credential.subject) == "ilc"


# -- catalog ----------------------------------------------------------------

def test_register_home_resident_remote_origin():
    fed = build_federation()
    assert fed.catalog.home(DATASET["dataset_id"]) == "site1"
    assert fed.catalog.sites_with_copy(DATASET["dataset_id"]) == ["site1"]
    home_loc = fed.site("site1").locator.locate(DATASET["dataset_id"])
    remote_loc = fed.site("site2").locator.locate(DATASET["dataset_id"])
    assert home_loc.origin_host is None
    assert remote_loc.origin_host == "site1-se"


def test_duplicate_registration_rejected():
    fed = build_federation()
    with pytest.raises(FederationError):
        fed.register_dataset(
            DATASET["dataset_id"], "/elsewhere", size_mb=1.0, n_events=10
        )


# -- broker -----------------------------------------------------------------

def test_broker_prefers_data_local_site():
    fed = build_federation()
    ranked = fed.broker.rank(DATASET["dataset_id"], n_engines=4)
    assert ranked[0].site == "site1"
    assert ranked[0].resident_mb == DATASET["size_mb"]
    assert ranked[0].transfer_s == 0.0
    assert ranked[1].site == "site2"
    assert ranked[1].wan_mb == DATASET["size_mb"]
    assert ranked[1].transfer_s > 0.0


def test_broker_excludes_partitioned_site():
    fed = build_federation()
    fed.partition_site("site1")
    assert fed.broker.score("site1", DATASET["dataset_id"]) is None
    ranked = fed.broker.rank(DATASET["dataset_id"])
    assert [score.site for score in ranked] == ["site2"]
    fed.heal_site("site1")
    assert fed.broker.rank(DATASET["dataset_id"])[0].site == "site1"


def test_broker_charges_admission_and_queue_depth():
    fed = build_federation(
        site_config=small_config(max_concurrent_engines=4)
    )
    busy = FederatedClient(fed, fed.enroll_user("/O=ILC/CN=busy"))

    def occupy():
        yield from busy.connect(n_engines=4, site="site1", migrate=False)

    fed.run(until=fed.env.process(occupy()))
    score = fed.broker.score("site1", n_engines=4)
    assert score.queue_depth == 1
    assert score.admission_wait_s > 0.0
    # an idle site with no data penalty outranks the saturated one
    ranked = fed.broker.rank(n_engines=4)
    assert ranked[0].site == "site2"


# -- replication policy ------------------------------------------------------

def test_ensure_resident_migrates_once_then_noops():
    fed = build_federation()
    ds = DATASET["dataset_id"]
    results = []

    def migrate_twice():
        results.append((yield from fed.policy.ensure_resident(ds, "site2")))
        results.append((yield from fed.policy.ensure_resident(ds, "site2")))

    fed.run(until=fed.env.process(migrate_twice()))
    assert results == [True, False]
    assert fed.stats()["migrations"] == 1
    stats = {row["site"]: row for row in fed.stats()["sites"]}
    assert stats["site1"]["wan_out_mb"] == DATASET["size_mb"]
    assert stats["site2"]["wan_in_mb"] == DATASET["size_mb"]


def count_third_party(site):
    """Wrap *site*'s SE-to-SE transfers; returns the list of file names."""
    names = []
    third_party = site.ftp.third_party

    def counted(src_se, dst_se, name, *args, **kwargs):
        names.append(name)
        return third_party(src_se, dst_se, name, *args, **kwargs)

    site.ftp.third_party = counted
    return names


def test_concurrent_migrations_to_one_site_share_one_copy():
    fed = build_federation()
    ds = DATASET["dataset_id"]
    copies = count_third_party(fed.site("site2"))
    clients = [
        FederatedClient(fed, fed.enroll_user(f"/O=ILC/CN=user{i}"))
        for i in range(2)
    ]
    procs = [
        fed.env.process(client.connect(
            n_engines=2, site="site2", migrate=True, dataset_hint=ds
        ))
        for client in clients
    ]
    fed.run(until=fed.env.all_of(procs))
    assert [client.site_name for client in clients] == ["site2", "site2"]
    assert copies == [f"{ds}.whole"]
    assert fed.stats()["migrations"] == 1
    stats = {row["site"]: row for row in fed.stats()["sites"]}
    assert stats["site1"]["wan_out_mb"] == DATASET["size_mb"]
    assert stats["site2"]["wan_in_mb"] == DATASET["size_mb"]
    assert fed.policy._migration_order == [(ds, "site2")]
    assert fed.policy._migrating == {}


def test_a_failed_migration_leaves_its_joiner_to_migrate_itself():
    fed = build_federation()
    ds = DATASET["dataset_id"]
    target = fed.site("site2")
    copies = count_third_party(target)
    # Every attempt of the first transfer (one try plus two retries) fails.
    target.ftp.inject_failures(3)
    outcomes = {}

    def migrate(key):
        try:
            outcomes[key] = yield from fed.policy.ensure_resident(ds, "site2")
        except FederationError:
            outcomes[key] = "failed"

    procs = [fed.env.process(migrate(key)) for key in ("leader", "joiner")]
    fed.run(until=fed.env.all_of(procs))
    assert outcomes == {"leader": "failed", "joiner": True}
    assert copies == [f"{ds}.whole"] * 2
    assert fed.stats()["migrations"] == 1
    assert fed.policy._migration_order == [(ds, "site2")]
    assert fed.policy._migrating == {}
    assert target.replicas.has_whole(target.locator.locate(ds))


def test_rank_sources_skips_partitioned_sites():
    fed = build_federation(n_sites=3)
    ds = DATASET["dataset_id"]

    def pin():
        yield from fed.policy.ensure_pinned(ds, 2)

    fed.run(until=fed.env.process(pin()))
    have = fed.catalog.sites_with_copy(ds)
    assert len(have) == 2
    target = next(n for n in fed.site_names if n not in have)
    assert len(fed.policy.rank_sources(ds, target)) == 2
    fed.partition_site("site1")
    sources = fed.policy.rank_sources(ds, target)
    assert [name for name, _est in sources] == [
        n for n in have if n != "site1"
    ]


def test_byte_pressure_evicts_oldest_migrated_copy_over_pin():
    # ceiling fits home + one migrated copy, not two
    fed = build_federation(n_sites=3, max_replica_mb=120.0)
    ds = DATASET["dataset_id"]

    def migrate_both():
        yield from fed.policy.ensure_resident(ds, "site2")
        yield from fed.policy.ensure_resident(ds, "site3")

    fed.run(until=fed.env.process(migrate_both()))
    # the site2 copy (oldest migration) was evicted, home never is
    assert fed.catalog.sites_with_copy(ds) == ["site1", "site3"]
    assert fed.stats()["evictions"] == 1


def test_pinned_copies_survive_byte_pressure():
    fed = build_federation(n_sites=3, max_replica_mb=120.0)
    ds = DATASET["dataset_id"]
    fed.policy.pin(ds, 3)

    def migrate_both():
        yield from fed.policy.ensure_resident(ds, "site2")
        yield from fed.policy.ensure_resident(ds, "site3")

    fed.run(until=fed.env.process(migrate_both()))
    # over the ceiling, but every copy is pinned: nothing to evict
    assert len(fed.catalog.sites_with_copy(ds)) == 3
    assert fed.stats()["evictions"] == 0


# -- end-to-end acceptance ---------------------------------------------------

def test_remote_site_session_bit_identical_and_warm_repeat():
    """Acceptance: brokered non-home session == single-site reference.

    First session forced to the non-home site migrates the dataset via
    SE-to-SE third-party transfer and stages warm off the local SE; the
    repeat session there skips the WAN entirely (no second migration).
    """
    reference = single_site_reference()
    fed = build_federation(
        site_config=small_config(enable_observability=True)
    )
    ftp_counter = fed.obs.metrics.counter("ftp_third_party_transfers_total")

    first = drive_session(
        fed, FederatedClient(fed, fed.enroll_user("/O=ILC/CN=a")), site="site2"
    )
    assert first["site"] == "site2"
    assert first["tree"] == reference
    assert first["fetch_skipped"] is True  # staged warm off migrated copy
    assert ftp_counter.total() == 1.0
    assert fed.stats()["migrations"] == 1
    loc = fed.site("site2").locator.locate(DATASET["dataset_id"])
    assert fed.site("site2").replicas.has_whole(loc)

    second = drive_session(
        fed, FederatedClient(fed, fed.enroll_user("/O=ILC/CN=b")), site="site2"
    )
    assert second["tree"] == reference
    assert second["fetch_skipped"] is True
    assert ftp_counter.total() == 1.0  # no second WAN transfer
    assert fed.stats()["migrations"] == 1


def test_home_site_session_matches_reference_without_wan():
    reference = single_site_reference()
    fed = build_federation()
    result = drive_session(
        fed, FederatedClient(fed, fed.enroll_user("/O=ILC/CN=c"))
    )
    assert result["site"] == "site1"  # broker picked the data-local site
    assert result["tree"] == reference
    assert fed.stats()["migrations"] == 0


def test_ranked_fallback_on_admission_refusal():
    """A saturated first choice falls through to the next-ranked site."""
    reference = single_site_reference()
    fed = build_federation(
        site_config=small_config(max_concurrent_engines=4)
    )
    busy = FederatedClient(fed, fed.enroll_user("/O=ILC/CN=hog"))

    def occupy():
        yield from busy.connect(n_engines=4, site="site1", migrate=False)

    fed.run(until=fed.env.process(occupy()))
    result = drive_session(
        fed, FederatedClient(fed, fed.enroll_user("/O=ILC/CN=d"))
    )
    assert result["site"] == "site2"
    assert result["tree"] == reference
    assert fed.stats()["fallbacks"] >= 1


def test_partition_mid_run_fails_over_with_identical_tree():
    reference = single_site_reference()
    fed = build_federation()
    client = FederatedClient(fed, fed.enroll_user("/O=ILC/CN=e"))
    ds = DATASET["dataset_id"]
    out = {}

    def scenario():
        yield from fed.policy.ensure_pinned(ds, 2)
        yield from client.connect(dataset_hint=ds)
        first_site = client.site_name
        yield from client.select_dataset(ds)
        yield from client.upload_code(higgs.SOURCE)
        yield from client.run()
        yield fed.env.timeout(3.0)
        fed.partition_site(first_site)
        final = yield from client.wait_for_completion(poll_interval=5.0)
        out["first"], out["second"] = first_site, client.site_name
        out["tree"] = final.tree.to_dict()
        yield from client.close()

    fed.run(until=fed.env.process(scenario()))
    assert out["second"] != out["first"]
    assert out["tree"] == reference
    assert fed.stats()["failovers"] == 1
    # the marooned session is orphaned at the partitioned site
    assert (
        fed.site(out["first"]).session_service.active_sessions == 1
    )


def test_failover_first_poll_at_the_new_site_decodes_a_full_tree():
    # Generations are per manager: the new site's numbers may well
    # collide with the ones the client held at the old site, so the
    # re-bind must drop the held tree and the first poll must not send
    # (nor be answered by) a validator.
    fed = build_federation()
    client = FederatedClient(fed, fed.enroll_user("/O=ILC/CN=f"))
    ds = DATASET["dataset_id"]
    sent = []
    out = {}

    def scenario():
        yield from fed.policy.ensure_pinned(ds, 2)
        yield from client.connect(dataset_hint=ds)
        out["first"] = client.site_name
        yield from client.select_dataset(ds)
        yield from client.upload_code(higgs.SOURCE)
        yield from client.run()
        yield from client.poll()
        held = yield from client.poll()
        for site in fed.sites.values():
            real = site.container.request

            def spy(service, operation, args=None, *rest, _real=real,
                    _name=site.name, **kwargs):
                if (service, operation) == ("aida", "merged"):
                    sent.append((_name, args.get("have")))
                return _real(service, operation, args, *rest, **kwargs)

            site.container.request = spy
        fed.partition_site(out["first"])
        moved = yield from client.poll()
        out["second"] = client.site_name
        out["fresh_tree"] = moved.tree is not held.tree
        final = yield from client.wait_for_completion(poll_interval=5.0)
        out["tree"] = final.tree.to_dict()
        yield from client.close()

    fed.run(until=fed.env.process(scenario()))
    assert out["second"] != out["first"]
    at_new_site = [have for name, have in sent if name == out["second"]]
    assert at_new_site[0] is None and out["fresh_tree"]
    # ...and from then on the polls at the new site are conditional.
    assert any(have is not None for have in at_new_site[1:])
    assert out["tree"] == single_site_reference()


def test_scheduled_site_fault_plan_partitions_boundary():
    fed = build_federation()
    injector = fed.site("site1").injector

    def faults():
        yield fed.env.timeout(5.0)
        injector.partition_site("site1")

    fed.env.process(faults())
    fed.run(until=10.0)
    assert injector.log[-1][:2] == (5.0, "site-partition")
    # boundary links are down; intra-site LAN is untouched
    assert not fed.network.links["wan-site1-se-site2-se"].up
    assert fed.network.links["lan-site1-manager-site1-se"].up


# -- stats + dashboard -------------------------------------------------------

def test_stats_panel_rows_and_dashboard_render():
    fed = build_federation(
        site_config=small_config(enable_observability=True)
    )
    drive_session(
        fed, FederatedClient(fed, fed.enroll_user("/O=ILC/CN=f")), site="site2"
    )
    fed.partition_site("site1")
    stats = fed.stats()
    rows = {row["site"]: row for row in stats["sites"]}
    assert rows["site1"]["partitioned"] is True
    assert rows["site2"]["sessions"] == 1
    assert rows["site2"]["wan_in_mb"] == DATASET["size_mb"]
    assert stats["brokered"] == 1

    board = render_board(fed.obs, federation=fed)
    assert "sites (1 brokered" in board
    assert "<< PARTITIONED" in board
    assert "site2" in board

    lines = sites_section(stats["sites"])
    assert len(lines) == 2
    assert "PARTITIONED" in lines[0]


def test_control_service_stats_carry_site_panel():
    fed = build_federation()
    panel = fed.site("site2").control.stats()["site"]
    assert panel["name"] == "site2"
    assert panel["sessions"] == 0
    assert panel["resident_replica_mb"] == 0.0
