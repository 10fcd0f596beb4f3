"""Per-table / per-figure experiment drivers (see DESIGN.md index)."""

from repro.eval.render import render_table
from repro.eval.tables import (
    render_table1,
    render_table2,
    render_table3,
    render_table4,
    render_table5,
    render_table6,
    render_table7,
    render_table8,
    render_table9,
    table1,
    table2,
    table5,
)
from repro.eval.figures import (
    fig4,
    fig9,
    fig10,
    fig12_accuracy,
    render_fig1,
    render_fig4,
    render_fig8,
    render_fig9,
    render_fig10,
    render_fig11,
    render_fig12,
    render_fig13,
)
from repro.eval.zoo import get_benchmark, train_benchmark

__all__ = [
    "fig4", "fig9", "fig10", "fig12_accuracy",
    "get_benchmark", "render_fig1", "render_fig4", "render_fig8",
    "render_fig9", "render_fig10", "render_fig11", "render_fig12",
    "render_fig13", "render_table", "render_table1", "render_table2",
    "render_table3", "render_table4", "render_table5", "render_table6",
    "render_table7", "render_table8", "render_table9",
    "table1", "table2", "table5", "train_benchmark",
]
