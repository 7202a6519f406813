"""Shared utilities: deterministic seeding, speedup statistics, table/Gantt rendering."""

from repro.utils.seeding import derive_rng
from repro.utils.stats import geometric_mean, speedup
from repro.utils.tables import format_table
from repro.utils.timeline_render import render_gantt

__all__ = [
    "derive_rng",
    "geometric_mean",
    "speedup",
    "format_table",
    "render_gantt",
]
