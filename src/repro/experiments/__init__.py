"""Experiment drivers regenerating the paper's figures and demos."""

from .common import (
    JSON_SCHEMA_VERSION,
    bar_chart,
    format_series,
    format_table,
)
from .eman_demo import EmanResult, run_eman_demo
from .metasched_stream import (
    MetaschedResult,
    metasched_tables,
    run_metasched,
)
from .fig3_qr import (
    DEFAULT_SIZES,
    PHASES,
    WORST_CASE_SECONDS,
    Fig3Point,
    Fig3Result,
    run_fig3,
    run_fig3_point,
)
from .faults_campaign import campaign_tables, run_faults_campaign
from .fig4_swap import Fig4Result, run_fig4
from .opportunistic import (
    OpportunisticResult,
    asymmetric_grid,
    run_opportunistic,
)
from .scheduler_bench import (
    build_scheduler_bench_env,
    run_scheduler_bench,
    schedules_equal,
)
from .substrate import build_substrate_grid, run_fanout_bench, run_substrate_bench

__all__ = [
    "OpportunisticResult",
    "asymmetric_grid",
    "run_opportunistic",
    "DEFAULT_SIZES",
    "EmanResult",
    "Fig3Point",
    "Fig3Result",
    "Fig4Result",
    "JSON_SCHEMA_VERSION",
    "MetaschedResult",
    "PHASES",
    "WORST_CASE_SECONDS",
    "bar_chart",
    "metasched_tables",
    "build_scheduler_bench_env",
    "build_substrate_grid",
    "campaign_tables",
    "format_series",
    "format_table",
    "run_eman_demo",
    "run_faults_campaign",
    "run_fig3",
    "run_fig3_point",
    "run_fanout_bench",
    "run_fig4",
    "run_metasched",
    "run_scheduler_bench",
    "run_substrate_bench",
    "schedules_equal",
]
