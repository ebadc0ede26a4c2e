"""Unit tests for the named-fault-point plane (repro.faults.points)."""

from __future__ import annotations

import errno
import io
import json

import pytest

from repro.faults import points
from repro.faults.points import (
    FAULT_POINTS,
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


@pytest.fixture(autouse=True)
def _no_leaked_plan():
    install_io_plan(None)
    yield
    install_io_plan(None)


class TestRegistry:
    def test_central_inventory_is_registered(self):
        inventory = fault_point_inventory()
        for name, description in FAULT_POINTS.items():
            assert inventory[name] == description
        # The plane covers every durability-critical layer; the service
        # keeps its run state in the results store, so its lifecycle
        # writes share the store's one commit point.
        assert sorted(FAULT_POINTS) == [
            "cache.spill.write",
            "ioutil.atomic_write.fsync",
            "ioutil.atomic_write.replace",
            "ioutil.atomic_write.write",
            "journal.append.fsync",
            "journal.append.write",
            "partitioned.shard.step",
            "resultsdb.commit",
        ]

    def test_registration_is_idempotent(self):
        name = register_fault_point(
            "ioutil.atomic_write.write", FAULT_POINTS["ioutil.atomic_write.write"]
        )
        assert is_fault_point(name)

    def test_conflicting_description_collides(self):
        with pytest.raises(FaultPointError, match="registered twice"):
            register_fault_point("journal.append.write", "something else")

    def test_inventory_is_sorted(self):
        names = list(fault_point_inventory())
        assert names == sorted(names)


class TestIoFaultValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(FaultPointError, match="unknown I/O fault kind"):
            IoFault(point="journal.append.write", kind="gamma-ray")

    def test_probability_out_of_range_rejected(self):
        with pytest.raises(FaultPointError, match="outside"):
            IoFault(point="journal.append.write", kind="eio", probability=1.5)

    def test_plan_rejects_unregistered_point(self):
        with pytest.raises(FaultPointError, match="unregistered point"):
            IoFaultPlan([IoFault(point="nope.nope", kind="eio")])

    def test_round_trip(self):
        plan = IoFaultPlan(
            [
                IoFault(
                    point="journal.append.write",
                    kind="torn-write",
                    after=2,
                    times=3,
                    probability=0.5,
                )
            ],
            seed=7,
        )
        clone = IoFaultPlan.from_dict(
            json.loads(json.dumps(plan.as_dict()))
        )
        assert clone.as_dict() == plan.as_dict()
        assert clone.seed == 7
        assert clone.faults[0].after == 2

    def test_from_dict_rejects_non_list_faults(self):
        with pytest.raises(FaultPointError, match="must be a list"):
            IoFaultPlan.from_dict({"seed": 0, "faults": "all of them"})


class TestMatching:
    def test_after_skips_then_times_bounds(self):
        plan = IoFaultPlan(
            [IoFault(point="journal.append.write", kind="eio", after=2, times=2)]
        )
        fired = [
            plan.match("journal.append.write") is not None for _ in range(6)
        ]
        assert fired == [False, False, True, True, False, False]
        assert plan.injected() == {0: 2}

    def test_points_count_independently(self):
        plan = IoFaultPlan(
            [IoFault(point="journal.append.fsync", kind="fsync-fail", after=1)]
        )
        assert plan.match("journal.append.write") is None
        assert plan.match("journal.append.fsync") is None  # arrival 0
        assert plan.match("journal.append.fsync") is not None  # arrival 1

    def test_first_eligible_rule_wins(self):
        plan = IoFaultPlan(
            [
                IoFault(point="journal.append.write", kind="eio", times=1),
                IoFault(point="journal.append.write", kind="enospc", times=1),
            ]
        )
        assert plan.match("journal.append.write").kind == "eio"
        assert plan.match("journal.append.write").kind == "enospc"

    def test_probability_is_seed_deterministic(self):
        def trace(seed):
            plan = IoFaultPlan(
                [
                    IoFault(
                        point="cache.spill.write",
                        kind="eio",
                        probability=0.5,
                        times=100,
                    )
                ],
                seed=seed,
            )
            return [
                plan.match("cache.spill.write") is not None
                for _ in range(40)
            ]

        assert trace(42) == trace(42)
        assert trace(42) != trace(43)  # astronomically unlikely to tie
        assert any(trace(42)) and not all(trace(42))


class TestCallSiteApi:
    def test_no_plan_is_a_plain_write(self):
        buffer = io.BytesIO()
        write_through("journal.append.write", buffer, b"payload")
        assert buffer.getvalue() == b"payload"

    def test_enospc_raises_before_any_bytes(self):
        buffer = io.BytesIO()
        plan = IoFaultPlan(
            [IoFault(point="journal.append.write", kind="enospc")]
        )
        with io_faults(plan):
            with pytest.raises(InjectedIOError) as excinfo:
                write_through("journal.append.write", buffer, b"payload")
        assert excinfo.value.errno == errno.ENOSPC
        assert buffer.getvalue() == b""  # a full disk rejects the write whole

    def test_torn_write_leaves_a_prefix_and_raises_eio(self):
        buffer = io.BytesIO()
        plan = IoFaultPlan(
            [IoFault(point="journal.append.write", kind="torn-write")]
        )
        with io_faults(plan):
            with pytest.raises(InjectedIOError) as excinfo:
                write_through("journal.append.write", buffer, b"0123456789")
        assert excinfo.value.errno == errno.EIO
        assert buffer.getvalue() == b"01234"  # half the payload, flushed

    def test_injected_error_is_a_real_oserror(self):
        plan = IoFaultPlan([IoFault(point="journal.append.fsync", kind="fsync-fail")])
        with io_faults(plan):
            with pytest.raises(OSError) as excinfo:
                check("journal.append.fsync")
        assert excinfo.value.errno == errno.EIO
        assert excinfo.value.point == "journal.append.fsync"
        assert excinfo.value.kind == "fsync-fail"

    def test_latency_sleeps_on_the_tracer_clock_then_writes(self):
        from repro.trace import FakeClock, Tracer, use_tracer

        tracer = Tracer(clock=FakeClock())
        buffer = io.BytesIO()
        plan = IoFaultPlan(
            [
                IoFault(
                    point="cache.spill.write",
                    kind="latency",
                    latency_seconds=1.5,
                )
            ]
        )
        with use_tracer(tracer), io_faults(plan):
            before = tracer.clock.now()
            write_through("cache.spill.write", buffer, b"blob")
            after = tracer.clock.now()
        assert buffer.getvalue() == b"blob"  # delayed, not lost
        assert after - before >= 1.5

    def test_check_fires_payloadless_points(self):
        plan = IoFaultPlan(
            [IoFault(point="ioutil.atomic_write.replace", kind="eio")]
        )
        with io_faults(plan):
            with pytest.raises(InjectedIOError):
                check("ioutil.atomic_write.replace")
            check("ioutil.atomic_write.replace")  # times=1 exhausted

    def test_context_manager_restores_previous_plan(self):
        outer = IoFaultPlan([], seed=1)
        inner = IoFaultPlan([], seed=2)
        install_io_plan(outer)
        with io_faults(inner):
            assert active_io_plan() is inner
        assert active_io_plan() is outer


class TestEnvDelivery:
    def test_plan_loads_lazily_from_env(self, tmp_path, monkeypatch):
        payload = IoFaultPlan(
            [IoFault(point="journal.append.write", kind="enospc")], seed=9
        ).as_dict()
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        monkeypatch.setenv(points.PLAN_ENV, str(path))
        monkeypatch.setattr(points, "_ENV_CHECKED", False)
        install_io_plan(None)
        plan = active_io_plan()
        assert plan is not None
        assert plan.seed == 9
        assert plan.faults[0].kind == "enospc"

    def test_env_checked_only_once(self, tmp_path, monkeypatch):
        monkeypatch.setenv(points.PLAN_ENV, str(tmp_path / "missing.json"))
        monkeypatch.setattr(points, "_ENV_CHECKED", True)
        install_io_plan(None)
        assert active_io_plan() is None  # no re-read, no crash
