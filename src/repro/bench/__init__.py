"""Experiment harness that regenerates the paper's tables and figures."""

from repro.bench.harness import (
    TABLE2_THREAD_ALLOCATION,
    TABLE3_THREAD_ALLOCATION,
    DayMetrics,
    run_update_simulation,
)
from repro.bench.reporting import format_series, format_table
from repro.bench.cost_model import RebuildCostModel, table1_rows

from repro.bench.scales import PERF_SCALES, SCALES, BenchScale, PerfScale

_STRESS_EXPORTS = ("ChaosSchedule", "StressConfig", "StressReport", "run_stress")
_PERF_EXPORTS = (
    "CLAIMS",
    "CompareReport",
    "ScenarioResult",
    "check_claims",
    "compare_dirs",
    "run_scenarios",
    "write_results",
)
_CRASH_MATRIX_EXPORTS = (
    "CrashMatrixConfig",
    "CrashMatrixReport",
    "CrashTrial",
    "run_crash_matrix",
)


def __getattr__(name):
    # Lazy: keeps `python -m repro.bench.stress` (and .crash_matrix)
    # runnable without the package __init__ pre-importing the submodule
    # (runpy warning).
    if name in _STRESS_EXPORTS:
        from repro.bench import stress

        return getattr(stress, name)
    if name in _CRASH_MATRIX_EXPORTS:
        from repro.bench import crash_matrix

        return getattr(crash_matrix, name)
    if name in _PERF_EXPORTS:
        from repro.bench import perf

        return getattr(perf, name)
    raise AttributeError(name)


__all__ = [
    "TABLE2_THREAD_ALLOCATION",
    "TABLE3_THREAD_ALLOCATION",
    "DayMetrics",
    "run_update_simulation",
    "format_series",
    "format_table",
    "RebuildCostModel",
    "table1_rows",
    "ChaosSchedule",
    "StressConfig",
    "StressReport",
    "run_stress",
    "CrashMatrixConfig",
    "CrashMatrixReport",
    "CrashTrial",
    "run_crash_matrix",
    "BenchScale",
    "PerfScale",
    "SCALES",
    "PERF_SCALES",
    "CLAIMS",
    "CompareReport",
    "ScenarioResult",
    "check_claims",
    "compare_dirs",
    "run_scenarios",
    "write_results",
]
