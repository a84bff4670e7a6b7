"""Worker supervision: failure taxonomy, deadlines, region retry (§14).

Pins the contract of the supervision layer on the thread transport:
worker death / hang / undecodable result surface as *typed* errors
naming the rank (never an indefinite hang), only that taxonomy triggers
the bounded region retry, and a recovered region reproduces the
undisturbed bits because thunks are pure (read-shared / write-own).
"""

import time

import numpy as np
import pytest

from repro.faults import FaultPlan, MessageFault, RankFault
from repro.ilu import ILUTParams, parallel_ilut
from repro.machine import (
    CRAY_T3D,
    Simulator,
    SupervisionPolicy,
    ThreadTransport,
    TransportCapabilityError,
    TransportError,
    WorkerCrashed,
    WorkerHung,
    resolve_transport,
    unportable_faults,
)
from repro.matrices import poisson2d
from repro.solvers import parallel_solve

# fail fast in tests: first supervised failure surfaces immediately
NO_RETRY = SupervisionPolicy(deadline=5.0, poll_interval=0.01, region_retries=0)
FAST = SupervisionPolicy(deadline=0.3, poll_interval=0.01, region_retries=0)


def _thunks(n, special=None):
    """n trivial thunks, with per-rank overrides (``special={1: fn}``)."""
    special = special or {}
    return [special.get(r, lambda r=r: r) for r in range(n)]


def _die():
    """A worker death no application ``except Exception`` can catch."""
    raise SystemExit("worker died")


class TestThreadFailureClassification:
    def test_non_exception_raise_classified_as_crash(self):
        def die():
            raise KeyboardInterrupt("worker interrupted")

        with ThreadTransport(2, supervision=NO_RETRY) as tt:
            with pytest.raises(WorkerCrashed) as ei:
                tt.pardo(_thunks(2, {1: die}))
        assert ei.value.rank == 1
        assert "KeyboardInterrupt" in ei.value.remote_traceback

    def test_application_error_reraised_not_retried(self):
        def boom():
            raise ValueError("app bug")

        with ThreadTransport(2) as tt:
            with pytest.raises(ValueError, match="app bug"):
                tt.pardo(_thunks(2, {1: boom}))
            assert tt.region_recoveries == 0

    def test_hang_detected_and_transport_survives(self):
        with ThreadTransport(2, supervision=FAST) as tt:
            t0 = time.perf_counter()
            with pytest.raises(WorkerHung) as ei:
                tt.pardo(_thunks(2, {1: lambda: time.sleep(1.0)}))
            assert time.perf_counter() - t0 < 5.0
            assert ei.value.rank == 1
            # the hung worker was abandoned and replaced: next region works
            assert tt.pardo(_thunks(2)) == [0, 1]
            time.sleep(1.0)  # let the abandoned sleeper drain before close

    def test_heartbeats_keep_a_slow_worker_alive(self):
        policy = SupervisionPolicy(deadline=0.4, poll_interval=0.01, region_retries=0)

        def slow_but_alive(tt):
            def thunk():
                for _ in range(12):
                    time.sleep(0.1)
                    tt.heartbeat()
                return "done"

            return thunk

        with ThreadTransport(2, supervision=policy) as tt:
            res = tt.pardo(_thunks(2, {1: slow_but_alive(tt)}))
        assert res[1] == "done"

    def test_close_warns_and_marks_unusable_when_worker_stuck(self):
        tt = ThreadTransport(2, supervision=FAST)
        tt.close_join_timeout = 0.1
        with pytest.raises(WorkerHung):
            tt.pardo(_thunks(2, {1: lambda: time.sleep(1.5)}))
        with pytest.warns(RuntimeWarning, match=r"rank\(s\) \[1\]"):
            tt.close()
        assert tt._stuck_ranks == [1]
        with pytest.raises(TransportError, match=r"rank\(s\) \[1\]"):
            tt.pardo(_thunks(2))
        time.sleep(1.5)  # drain the daemon sleeper before the next test


class TestRegionRetry:
    def test_retry_budget_exhaustion_raises_last_failure(self):
        policy = SupervisionPolicy(deadline=5.0, poll_interval=0.01, region_retries=1)
        with ThreadTransport(2, supervision=policy) as tt:
            with pytest.raises(WorkerCrashed) as ei:
                # deterministic crash: fails on the retry too
                tt.pardo(_thunks(2, {1: _die}))
            assert ei.value.rank == 1
            assert tt.region_recoveries == 1  # one retry burned before raising

    @pytest.mark.parametrize("cls", [ThreadTransport])
    def test_injected_crash_recovers_with_journal(self, cls):
        plan = FaultPlan(rank_faults=[RankFault("crash", rank=1, superstep=0)])
        with cls(2, faults=plan) as tt:
            res = tt.pardo(_thunks(2))
        assert res == [0, 1]
        assert tt.region_recoveries == 1
        assert tt.fault_journal is not None
        assert tt.fault_journal.counts() == {"crash": 1, "region-retry": 1}

    @pytest.mark.parametrize("cls", [ThreadTransport])
    def test_injected_corrupt_result_recovers(self, cls):
        plan = FaultPlan(message_faults=[MessageFault("corrupt", src=1)])
        with cls(2, faults=plan) as tt:
            res = tt.pardo(_thunks(2))
        assert res == [0, 1]
        assert tt.region_recoveries == 1
        assert tt.fault_journal.counts() == {"corrupt": 1, "region-retry": 1}

    @pytest.mark.parametrize("cls", [ThreadTransport])
    def test_injected_stall_past_deadline_recovers(self, cls):
        policy = SupervisionPolicy(deadline=0.3, poll_interval=0.01)
        plan = FaultPlan(
            rank_faults=[RankFault("stall", rank=1, superstep=0, stall=1.0)]
        )
        with cls(2, supervision=policy, faults=plan) as tt:
            res = tt.pardo(_thunks(2))
            assert res == [0, 1]
            assert tt.region_recoveries == 1
            counts = tt.fault_journal.counts()
            assert counts["stall"] == 1 and counts["region-retry"] == 1
            time.sleep(1.0)  # let the abandoned sleeper drain

    def test_counters_rolled_back_across_retry(self):
        plan = FaultPlan(rank_faults=[RankFault("crash", rank=1, superstep=0)])
        with ThreadTransport(2, faults=plan) as faulted, ThreadTransport(2) as clean:

            def work(tt):
                def make(r):
                    def thunk():
                        tt.compute(r, 100.0)
                        return r

                    return thunk

                return [make(0), make(1)]

            faulted.pardo(work(faulted))
            clean.pardo(work(clean))
            # the crashed attempt's partial charges must not leak through
            assert faulted.stats().total_flops == clean.stats().total_flops
            assert faulted.stats().barriers == clean.stats().barriers


class TestDriverRecoveryBitIdentity:
    @pytest.mark.parametrize("transport", ["threads"])
    def test_parallel_ilut_crash_recovery_matches_all_oracles(self, transport):
        A = poisson2d(12)
        params = ILUTParams(fill=5, threshold=1e-4)
        oracle = parallel_ilut(A, params, 4, seed=0)  # simulator reference
        base = parallel_ilut(A, params, 4, seed=0, transport=transport)
        plan = FaultPlan(rank_faults=[RankFault("crash", rank=2, superstep=3)])
        res = parallel_ilut(A, params, 4, seed=0, transport=transport, faults=plan)
        assert res.recoveries == 1
        assert res.fault_journal.counts() == {"crash": 1, "region-retry": 1}
        for other in (base, oracle):
            assert np.array_equal(res.factors.L.data, other.factors.L.data)
            assert np.array_equal(res.factors.L.indices, other.factors.L.indices)
            assert np.array_equal(res.factors.U.data, other.factors.U.data)
            assert np.array_equal(res.factors.U.indices, other.factors.U.indices)
            assert np.array_equal(res.factors.perm, other.factors.perm)
        assert res.comm.messages == base.comm.messages
        assert res.comm.total_flops == base.comm.total_flops

    def test_thread_chaos_matches_simulator_oracle(self):
        """The same seeded plan recovers on threads and the simulator,
        and both land on the oracle's factors bit for bit."""
        A = poisson2d(12)
        params = ILUTParams(fill=5, threshold=1e-4)
        plan = FaultPlan(rank_faults=[RankFault("crash", rank=1, superstep=2)])
        clean = parallel_ilut(A, params, 4, seed=0)
        sim = parallel_ilut(A, params, 4, seed=0, faults=plan)
        real = parallel_ilut(A, params, 4, seed=0, faults=plan, transport="threads")
        assert sim.recoveries >= 1  # checkpoint restarts on the simulator
        assert real.recoveries == 1  # region retry on the real transport
        for res in (sim, real):
            assert np.array_equal(res.factors.L.data, clean.factors.L.data)
            assert np.array_equal(res.factors.U.data, clean.factors.U.data)
            assert np.array_equal(res.factors.L.indptr, clean.factors.L.indptr)
            assert np.array_equal(res.factors.U.indptr, clean.factors.U.indptr)
            assert np.array_equal(res.factors.perm, clean.factors.perm)

    def test_parallel_solve_crash_recovery_is_bit_identical(self):
        """Injected crash during factorization: same solution bits, same
        iteration count, one region recovery — on a real transport."""
        A = poisson2d(10)
        b = A @ np.ones(A.shape[0])
        kwargs = dict(m=5, t=1e-4, k=2, transport="threads")
        base = parallel_solve(A, b, 4, **kwargs)
        plan = FaultPlan(rank_faults=[RankFault("crash", rank=2, superstep=3)])
        rep = parallel_solve(A, b, 4, faults=plan, **kwargs)
        assert rep.recoveries == 1
        assert rep.fault_journal is not None
        assert rep.fault_journal.counts() == {"crash": 1, "region-retry": 1}
        assert rep.converged and base.converged
        assert rep.num_matvec == base.num_matvec
        assert np.array_equal(rep.x, base.x)


class TestPortabilityGate:
    def test_unportable_faults_lists_offenders(self):
        plan = FaultPlan(
            message_faults=[
                MessageFault("drop"),
                MessageFault("delay", delay=1.0),
                MessageFault("corrupt"),
            ],
            rank_faults=[RankFault("crash", rank=0)],
        )
        bad = unportable_faults(plan)
        assert bad == ["message fault 'drop'", "message fault 'delay'"]
        assert unportable_faults(
            FaultPlan(rank_faults=[RankFault("stall", rank=0, stall=1.0)])
        ) == []

    @pytest.mark.parametrize("name", ["threads"])
    @pytest.mark.parametrize("action", ["drop", "delay", "duplicate"])
    def test_unportable_plan_rejected_off_simulator(self, name, action):
        kwargs = {"delay": 1.0} if action == "delay" else {}
        plan = FaultPlan(message_faults=[MessageFault(action, **kwargs)])
        with pytest.raises(TransportCapabilityError, match=action):
            resolve_transport(name, 2, faults=plan)

    @pytest.mark.parametrize("spec", ["simulator", "none", None])
    def test_supervision_requires_real_workers(self, spec):
        with pytest.raises(TransportCapabilityError, match="supervision"):
            resolve_transport(spec, 2, supervision=SupervisionPolicy())

    def test_supervision_cannot_be_retrofitted_onto_instance(self):
        with ThreadTransport(2) as tt:
            with pytest.raises(TransportCapabilityError, match="supervision"):
                resolve_transport(tt, 2, supervision=SupervisionPolicy())


class TestSupervisionPolicy:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"deadline": 0.0},
            {"deadline": -1.0},
            {"poll_interval": 0.0},
            {"region_retries": -1},
        ],
    )
    def test_invalid_policy_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SupervisionPolicy(**kwargs)

    def test_deadline_none_disables_polling_but_still_classifies(self):
        policy = SupervisionPolicy(deadline=None, region_retries=0)
        with ThreadTransport(2, supervision=policy) as tt:
            assert tt.pardo(_thunks(2)) == [0, 1]
            with pytest.raises(WorkerCrashed):
                tt.pardo(_thunks(2, {1: _die}))

    def test_heartbeat_is_a_noop_everywhere_safe(self):
        sim = Simulator(2, CRAY_T3D)
        sim.heartbeat()  # simulator: no-op
        with ThreadTransport(2) as tt:
            tt.heartbeat()  # coordinator context: no-op
