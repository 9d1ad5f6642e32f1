"""Unit tests for :mod:`repro.faults`: plan codec, determinism, hooks."""

import multiprocessing
import threading
import time

import pytest

from repro import faults
from repro.faults import FAULTS_ENV, FaultPlan, InjectedFaultError, plan_from_env


class TestPlanCodec:
    def test_json_round_trip(self):
        plan = FaultPlan(
            seed=7,
            kill_worker={0: 3, 2: 5},
            drop_heartbeats={1: 4},
            torn_append=(2,),
            corrupt_append=(5, 9),
            fsync_error=(1,),
            slow_io_ms=2.5,
            slow_io_every=3,
        )
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_to_json_is_canonical(self):
        left = FaultPlan(seed=1, kill_worker={1: 2, 0: 4}, torn_append=(3, 1))
        right = FaultPlan(seed=1, kill_worker={0: 4, 1: 2}, torn_append=(1, 3))
        assert left.to_json() == right.to_json()

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown fault plan keys"):
            FaultPlan.from_json('{"seed": 1, "explode": true}')

    def test_non_object_rejected(self):
        with pytest.raises(ValueError, match="JSON object"):
            FaultPlan.from_json("[1, 2]")

    def test_plan_from_env(self):
        plan = FaultPlan(seed=3, fsync_error=(2,))
        assert plan_from_env({FAULTS_ENV: plan.to_json()}) == plan
        assert plan_from_env({}) is None
        assert plan_from_env({FAULTS_ENV: ""}) is None

    def test_kill_loop_is_seed_deterministic(self, kill_loop):
        """The chaos suite's plans replay from ``REPRO_CHAOS_SEED`` alone."""
        first = kill_loop(42, num_shards=4)
        second = kill_loop(42, num_shards=4)
        other = kill_loop(43, num_shards=4)
        assert first == second
        assert first.seed == 42
        assert set(first.kill_worker) == {0, 1, 2, 3}
        assert all(2 <= nth <= 8 for nth in first.kill_worker.values())
        assert other.kill_worker != first.kill_worker


class TestHooks:
    def test_append_hook_fires_at_exact_ordinals(self):
        faults.install(FaultPlan(torn_append=(2,), corrupt_append=(3,)))
        assert faults.on_wal_append() is None
        assert faults.on_wal_append() == "torn"
        assert faults.on_wal_append() == "corrupt"
        assert faults.on_wal_append() is None

    def test_fsync_hook_raises_at_ordinal(self):
        faults.install(FaultPlan(fsync_error=(2,)))
        faults.on_wal_fsync()
        with pytest.raises(InjectedFaultError):
            faults.on_wal_fsync()
        faults.on_wal_fsync()

    def test_install_resets_counters(self):
        faults.install(FaultPlan(torn_append=(1,)))
        assert faults.on_wal_append() == "torn"
        faults.install(FaultPlan(torn_append=(1,)))
        assert faults.on_wal_append() == "torn"

    def test_shard_scoped_heartbeat_drop(self):
        faults.install(FaultPlan(drop_heartbeats={1: 2}))
        # unscoped process (the daemon itself): never drops
        assert not faults.on_heartbeat()
        faults.set_scope(0)  # a different shard's worker
        assert not faults.on_heartbeat()
        faults.set_scope(1)
        assert faults.on_heartbeat()
        assert faults.on_heartbeat()
        assert not faults.on_heartbeat()  # budget exhausted

    def test_env_plan_resolved_once_and_rearmed_by_clear(self, monkeypatch):
        plan = FaultPlan(seed=5, fsync_error=(1,))
        monkeypatch.setenv(FAULTS_ENV, plan.to_json())
        assert faults.active_plan() == plan
        monkeypatch.setenv(FAULTS_ENV, FaultPlan(seed=6).to_json())
        assert faults.active_plan() == plan  # cached until cleared
        faults.clear()
        assert faults.active_plan() == FaultPlan(seed=6)

    def test_a_worker_forked_while_another_thread_counts_can_count(self):
        """A shard worker forked while a daemon thread holds the hooks' lock
        must not inherit it held: its first counted hook would block."""
        faults.install(FaultPlan(torn_append=(1,)))
        held = threading.Event()

        def counter():
            with faults._lock:
                held.set()
                time.sleep(0.2)

        def worker():
            assert faults.on_wal_append() is None  # this process's 2nd append

        faults.on_wal_append()
        thread = threading.Thread(target=counter)
        thread.start()
        held.wait(5)
        child = multiprocessing.get_context("fork").Process(target=worker)
        child.start()
        child.join(10)
        thread.join(5)
        if child.is_alive():
            child.kill()
            child.join(5)
            pytest.fail("the forked worker blocked on the fault hooks' lock")
        assert child.exitcode == 0
