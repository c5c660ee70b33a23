"""ASCII dashboard: the headless stand-in for the JAS results window.

``dashboard`` renders the merged-results view (Fig. 4).  The operator's
telemetry view is :func:`repro.obs.dashboard.render_board`.
"""

from __future__ import annotations

from typing import Optional

from repro.aida.render import render_object
from repro.aida.tree import ObjectTree
from repro.services.aida_manager import MergeProgress


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
