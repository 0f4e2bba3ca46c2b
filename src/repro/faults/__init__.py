"""Deterministic fault injection and crash-recovery model checking.

The paper's premise is that provenance is the audit record of last resort
(§II.A): every control point is only as trustworthy as the store's rows.
A store that silently loses, duplicates, or tears rows after a crash
undermines the whole audit chain — and log durability, not rule
expressiveness, is where audit systems actually fail in practice.

This package makes those failures *first-class and replayable*:

- :class:`~repro.faults.plan.FaultPlan` — a seeded, scripted schedule of
  faults (raise on the Nth write, tear the Nth flush, crash at a named
  crash point, freeze the fsync image); every injected failure is
  reproducible from its seed.
- :class:`~repro.faults.backend.FaultyBackend` — a
  :class:`~repro.store.backends.base.StorageBackend` proxy that wraps any
  real backend and executes the plan, then models process death
  (:meth:`~repro.faults.backend.FaultyBackend.crash`) and recovery
  (:meth:`~repro.faults.backend.FaultyBackend.recover`).
- :mod:`~repro.faults.points` — named crash points threaded (no-op by
  default) through the store's commit path, SQLite transaction
  boundaries, and verdict-snapshot save/restore.
- :mod:`~repro.faults.checker` — the crash-recovery model checker: runs
  randomized append/evaluate/snapshot/crash/reopen schedules against a
  never-crashed oracle and asserts the recovered store is a clean,
  convergent prefix.  ``python -m repro chaos`` drives it from the CLI.
"""

from repro.faults.plan import FaultPlan, SimulatedCrash
from repro.faults.points import active_plan, crash_point

# FaultyBackend and the model checker depend on the store/controls layers,
# which themselves call crash_point() — so those symbols load lazily to
# keep `repro.store.backends.sqlite` → `repro.faults.points` acyclic.
_LAZY = {
    "FaultyBackend": ("repro.faults.backend", "FaultyBackend"),
    "CheckFailure": ("repro.faults.checker", "CheckFailure"),
    "ScheduleReport": ("repro.faults.checker", "ScheduleReport"),
    "run_schedule": ("repro.faults.checker", "run_schedule"),
    "run_schedules": ("repro.faults.checker", "run_schedules"),
}


def __getattr__(name):
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    import importlib

    return getattr(importlib.import_module(module_name), attr)


__all__ = [
    "CheckFailure",
    "FaultPlan",
    "FaultyBackend",
    "ScheduleReport",
    "SimulatedCrash",
    "active_plan",
    "crash_point",
    "run_schedule",
    "run_schedules",
]
