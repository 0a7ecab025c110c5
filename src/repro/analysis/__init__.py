"""Table generators, the Sec. VI/VII memory studies and the sweep driver.

Figs. 5–8 are registry scenarios (``repro.scenarios.get("fig5").run()``
etc.); the generators here return frozen dataclasses or row tuples, so the
benchmarks can assert the paper's qualitative claims against them and the
examples can render them as text.
"""

from repro.analysis.figures import L2StudyResult, l2_kv_cache_study
from repro.analysis.sweep import SweepGrid, SweepPoint, SweepResult, run_sweep
from repro.analysis.tables import (
    blade_spec_table,
    datalink_table,
    pcl_flow_table,
    render_columns,
    render_two_column,
    table1_technology,
)

__all__ = [
    "SweepGrid",
    "SweepPoint",
    "SweepResult",
    "run_sweep",
    "L2StudyResult",
    "l2_kv_cache_study",
    "table1_technology",
    "datalink_table",
    "blade_spec_table",
    "pcl_flow_table",
    "render_columns",
    "render_two_column",
]
