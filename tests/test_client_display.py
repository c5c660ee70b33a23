"""Unit tests for the client plug-ins and the ASCII dashboard."""

import pytest

from repro.aida.hist1d import Histogram1D
from repro.aida.tree import ObjectTree
from repro.client.display import dashboard, progress_bar
from repro.client.plugins import GridProxyPlugin, RemoteDataPlugin
from repro.core.site import GridSite, SiteConfig
from repro.services.aida_manager import MergeProgress


# ---------------------------------------------------------------------------
# progress_bar / dashboard
# ---------------------------------------------------------------------------

def test_progress_bar_bounds():
    assert progress_bar(0.0, width=10) == "[..........]   0.0%"
    assert progress_bar(1.0, width=10) == "[##########] 100.0%"
    assert progress_bar(0.5, width=10).count("#") == 5
    # Clipped outside [0, 1].
    assert progress_bar(-1.0, width=10).count("#") == 0
    assert progress_bar(2.0, width=10).count("#") == 10


def make_progress(**overrides):
    defaults = dict(
        session_id="session-1",
        engines_reporting=4,
        events_processed=500,
        total_events=1000,
        final_engines=0,
        run_id=0,
        analysis_versions=[1],
        merged_at=12.0,
    )
    defaults.update(overrides)
    return MergeProgress(**defaults)


def tree_with(n_hists):
    tree = ObjectTree()
    for index in range(n_hists):
        hist = Histogram1D(f"h{index}", bins=5, lower=0, upper=5)
        hist.fill(2.5)
        tree.put(f"/dir/h{index}", hist)
    return tree


def test_dashboard_shows_progress_and_objects():
    text = dashboard(tree_with(2), make_progress())
    assert "session session-1" in text
    assert "events=500/1000" in text
    assert "50.0%" in text
    assert "/dir/h0" in text
    assert "/dir/h1" in text


def test_dashboard_truncates_objects():
    text = dashboard(tree_with(6), make_progress(), max_objects=2)
    assert "/dir/h1" in text
    assert "/dir/h5" not in text
    assert "and 4 more objects" in text


def test_dashboard_without_progress():
    text = dashboard(tree_with(1))
    assert "session" not in text
    assert "/dir/h0" in text


def test_dashboard_empty_tree():
    text = dashboard(ObjectTree(), make_progress(events_processed=0))
    assert "0.0%" in text


def test_merge_progress_properties():
    progress = make_progress(final_engines=4)
    assert progress.fraction_done == pytest.approx(0.5)
    assert progress.complete
    empty = make_progress(engines_reporting=0, total_events=0, final_engines=0)
    assert empty.fraction_done == 0.0
    assert not empty.complete


# ---------------------------------------------------------------------------
# Plug-ins
# ---------------------------------------------------------------------------

def test_proxy_plugin_requires_obtain_first():
    site = GridSite(SiteConfig(n_workers=1))
    credential = site.enroll_user("/CN=x")
    plugin = GridProxyPlugin(site.env, credential)
    with pytest.raises(RuntimeError, match="no proxy"):
        _ = plugin.chain
    plugin.obtain_proxy()
    assert len(plugin.chain) == 2
    assert plugin.chain[0].proxy_depth == 1


def test_proxy_plugin_replaces_proxy():
    site = GridSite(SiteConfig(n_workers=1))
    plugin = GridProxyPlugin(site.env, site.enroll_user("/CN=x"))
    first = plugin.obtain_proxy(lifetime=10.0)
    second = plugin.obtain_proxy(lifetime=100.0)
    assert plugin.proxy is second
    assert second.certificate.not_after > first.certificate.not_after


def test_remote_data_plugin_requires_binding():
    site = GridSite(SiteConfig(n_workers=1))
    plugin = RemoteDataPlugin(site.container)
    with pytest.raises(RuntimeError, match="not bound"):
        next(plugin.poll())

