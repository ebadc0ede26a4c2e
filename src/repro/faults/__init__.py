"""Cross-layer fault-injection plane.

Two complementary planes, one seed discipline:

* :mod:`repro.faults.plan` — **job-scoped** faults (hang, crash, error,
  harness-kill) matched by job spec and attempt, injected by the worker
  pool;
* :mod:`repro.faults.points` — **I/O-scoped** faults (ENOSPC, EIO,
  failed fsync, torn write, latency, kill) matched at named, centrally
  registered fault points inside ``ioutil``, the run journal, the cache
  spill, the results store, and the partitioned engine's shards.

Both are deterministic given their seed and travel to child processes,
so chaos suites assert exact outcomes — which run quarantines, which
journal degrades — instead of sampling noise. docs/robustness.md holds
the fault-point inventory and the invariants each suite proves.
"""

from repro.faults.plan import FaultPlan, FaultSpec, InjectedFaultError
from repro.faults.points import (
    FAULT_POINTS,
    IO_FAULT_KINDS,
    PLAN_ENV,
    FaultPointError,
    InjectedIOError,
    IoFault,
    IoFaultPlan,
    active_io_plan,
    check,
    fault_point_inventory,
    install_io_plan,
    io_faults,
    is_fault_point,
    register_fault_point,
    write_through,
)

__all__ = [
    "FaultPlan",
    "FaultSpec",
    "InjectedFaultError",
    "FAULT_POINTS",
    "IO_FAULT_KINDS",
    "PLAN_ENV",
    "FaultPointError",
    "InjectedIOError",
    "IoFault",
    "IoFaultPlan",
    "active_io_plan",
    "check",
    "fault_point_inventory",
    "install_io_plan",
    "io_faults",
    "is_fault_point",
    "register_fault_point",
    "write_through",
]
