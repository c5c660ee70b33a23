"""ASCII dashboards: headless stand-ins for the JAS windows.

``dashboard`` renders the merged-results view (Fig. 4);
``render_catalog`` renders the dataset-chooser view (Fig. 3);
``status_board`` renders the operator's telemetry view (nodes, SLO
gauges, stragglers, recent events — see :mod:`repro.obs.dashboard`).
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.aida.render import render_object
from repro.aida.tree import ObjectTree
from repro.services.aida_manager import MergeProgress
from repro.services.catalog import DatasetEntry


def progress_bar(fraction: float, width: int = 40) -> str:
    """Render ``[#####.....] 50.0%``."""
    fraction = min(max(fraction, 0.0), 1.0)
    filled = int(round(fraction * width))
    return f"[{'#' * filled}{'.' * (width - filled)}] {fraction * 100:5.1f}%"


def dashboard(
    tree: ObjectTree,
    progress: Optional[MergeProgress] = None,
    max_objects: int = 4,
    width: int = 60,
    height: int = 10,
) -> str:
    """Render the merged results as a text dashboard.

    Shows the analysis progress line (engines reporting, events processed)
    followed by up to *max_objects* rendered histograms/profiles.
    """
    lines = ["=" * (width + 2)]
    if progress is not None:
        lines.append(
            f"session {progress.session_id}  "
            f"engines={progress.engines_reporting}  "
            f"run={progress.run_id}  "
            f"events={progress.events_processed}/{progress.total_events}"
        )
        lines.append(progress_bar(progress.fraction_done, width=width - 8))
    paths = tree.paths()
    for path in paths[:max_objects]:
        lines.append("-" * (width + 2))
        lines.append(path)
        try:
            lines.append(
                render_object(tree.get(path), width=width, height=height)
            )
        except TypeError:
            # Renderer for this type takes no size kwargs.
            lines.append(render_object(tree.get(path)))
    if len(paths) > max_objects:
        lines.append(f"... and {len(paths) - max_objects} more objects")
    lines.append("=" * (width + 2))
    return "\n".join(lines)


def status_board(
    obs,
    session_service=None,
    session_id: Optional[str] = None,
    max_events: int = 8,
) -> str:
    """Render the live telemetry status board for one run.

    Thin client-side wrapper over
    :func:`repro.obs.dashboard.render_board` so display code can stay
    imported from one place; works mid-run and degrades gracefully when
    observability is disabled.
    """
    from repro.obs.dashboard import render_board

    return render_board(
        obs,
        session_service=session_service,
        session_id=session_id,
        max_events=max_events,
    )


def render_catalog(
    listing: dict,
    path: str = "/",
    entries: Optional[Sequence[DatasetEntry]] = None,
) -> str:
    """Render a catalog browse result as the Fig.-3-style chooser view.

    Parameters
    ----------
    listing:
        Output of ``browse``: ``{"directories": [...], "datasets": [...]}``.
    path:
        The directory being shown.
    entries:
        Optional full entries for the listed datasets (adds size/event
        columns when provided).
    """
    lines = [f"Dataset Catalog — {path}", "-" * 48]
    for directory in listing.get("directories", []):
        lines.append(f"  [+] {directory}/")
    by_name = {}
    if entries:
        for entry in entries:
            by_name[entry.path.rsplit("/", 1)[-1]] = entry
    for dataset in listing.get("datasets", []):
        entry = by_name.get(dataset)
        if entry is not None:
            lines.append(
                f"  [=] {dataset}  ({entry.size_mb:.0f} MB, "
                f"{entry.n_events} events)"
            )
        else:
            lines.append(f"  [=] {dataset}")
    if len(lines) == 2:
        lines.append("  (empty)")
    return "\n".join(lines)
