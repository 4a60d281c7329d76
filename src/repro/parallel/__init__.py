"""Shared-memory parallel runtime (the OpenMP role in the paper's stack).

Pure scheduling logic lives in :mod:`repro.parallel.schedule` — it is used
both by the real executors and by the simulated machine, so the machine
model schedules exactly the work distribution the real runtime would.

Execution backends live in :mod:`repro.parallel.executor` (``serial`` /
``thread``, selected via ``REPRO_EXECUTOR``).
"""

from .executor import (
    DEFAULT_EXECUTOR,
    EXECUTOR_ENV_VAR,
    EXECUTOR_NAMES,
    ExecutorBase,
    SerialExecutor,
    ThreadExecutor,
    get_executor,
    resolve_executor,
    shutdown_executors,
)
from .partition import row_blocks, balanced_chunks, block_of_row
from .schedule import (
    StaticSchedule,
    DynamicSchedule,
    GuidedSchedule,
    ScheduleOutcome,
    run_schedule,
)
from .threadpool import effective_threads

__all__ = [
    "row_blocks",
    "balanced_chunks",
    "block_of_row",
    "StaticSchedule",
    "DynamicSchedule",
    "GuidedSchedule",
    "ScheduleOutcome",
    "run_schedule",
    "effective_threads",
    "DEFAULT_EXECUTOR",
    "EXECUTOR_ENV_VAR",
    "EXECUTOR_NAMES",
    "ExecutorBase",
    "SerialExecutor",
    "ThreadExecutor",
    "get_executor",
    "resolve_executor",
    "shutdown_executors",
]
