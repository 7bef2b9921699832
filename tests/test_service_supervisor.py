"""Supervised worker pool: crash drills, deadlines, degradation.

The headline guarantees under test (ISSUE 8):

* compile/solve results served by the process pool are *bit-identical*
  to in-process compilation — with and without injected worker crashes
  (determinism contract);
* a SIGKILLed worker is detected, respawned with backoff, and the
  in-flight request retried; the retries/respawns are visible in
  ``service_stats`` and as instants on the compiler Perfetto lane;
* a poison request exhausts the retry budget and surfaces a typed
  :class:`WorkerCrashedError` carrying forensics (argv, request digest,
  exit status) when degradation is off — and falls back to in-process
  compilation (counted) when it is on;
* deadlines kill stragglers (worker killed *and* respawned, slot never
  orphaned) and ``CompileJob.wait(timeout)`` cancels a still-queued job
  cleanly;
* the bounded admission queue sheds load with
  :class:`ServiceOverloadedError`.
"""

from __future__ import annotations

import pickle

import pytest

from repro.errors import (
    DeadlineExceededError,
    ReproError,
    ServiceOverloadedError,
    WorkerCrashedError,
)
from repro.lang import jacobi_program, matmul_program, sor_program
from repro.machine.model import MachineModel
from repro.service import CompileService, WorkerSupervisor
from repro.service.supervisor import _run_task
from repro.util import spans

MODEL = MachineModel(tf=1, tc=10)

CORPUS = [
    (jacobi_program(), {"m": 32, "maxiter": 2}),
    (sor_program(), {"m": 32, "maxiter": 2}),
    (matmul_program(), {"n": 16}),
]


def serve_corpus(service):
    out = [
        service.compile(program, nprocs=4, env=env) for program, env in CORPUS
    ]
    service.close()
    return out


def outcome_bytes(results):
    return [
        (pickle.dumps(r.plan.generated), pickle.dumps(r.outcome))
        for r in results
    ]


class TestSupervisor:
    def test_ping_and_remote_error(self):
        with WorkerSupervisor(1, MODEL) as pool:
            assert pool.call({"kind": "ping"}) == "pong"
            with pytest.raises(ReproError, match="unknown worker task kind"):
                pool.call({"kind": "nonsense"})
            # the pool survives a request that raised remotely
            assert pool.call({"kind": "ping"}) == "pong"

    def test_crash_is_retried_and_counted(self):
        with spans.recording() as rec:
            with WorkerSupervisor(1, MODEL, chaos_kill_requests=(0,)) as pool:
                assert pool.call({"kind": "ping"}) == "pong"
                stats = pool.stats()
        assert stats["crashes"] == 1
        assert stats["respawns"] == 1
        assert stats["retries"] == 1
        names = [s.detail for s in rec.spans]
        assert "service/worker-crash#0" in names
        assert "service/worker-respawn#0" in names

    def test_unpicklable_result_is_a_typed_error_not_a_crash(self):
        with WorkerSupervisor(1, MODEL) as pool:
            with pytest.raises(ReproError, match="unpicklable result"):
                pool.call({"kind": "unpicklable"})
            assert pool.stats()["crashes"] == 0
            assert pool.call({"kind": "ping"}) == "pong"

    def test_poison_request_exhausts_budget_with_forensics(self):
        # every dispatch of this request crashes: 1 try + 2 retries
        with WorkerSupervisor(
            1, MODEL, retry_budget=2, max_respawns=10,
            backoff_s=0.0, chaos_kill_requests=range(100),
        ) as pool:
            with pytest.raises(WorkerCrashedError) as info:
                pool.call({"kind": "ping"})
        err = info.value
        assert err.attempts == 3
        assert err.exitcode == -9
        assert err.worker == 0
        assert err.pid is not None
        assert len(err.request_digest) == 64
        assert err.argv  # spawn argv recorded for forensics
        assert "exit status -9" in str(err)

    def test_pool_breaks_when_respawn_budget_exhausted(self):
        with WorkerSupervisor(
            1, MODEL, retry_budget=10, max_respawns=1,
            backoff_s=0.0, chaos_kill_requests=range(100),
        ) as pool:
            with pytest.raises(WorkerCrashedError):
                pool.call({"kind": "ping"})
            assert pool.broken
            with pytest.raises(WorkerCrashedError):
                pool.call({"kind": "ping"})

    def test_deadline_kills_straggler_and_respawns(self):
        with spans.recording() as rec:
            with WorkerSupervisor(1, MODEL) as pool:
                with pytest.raises(DeadlineExceededError, match="killed and respawned"):
                    pool.call({"kind": "sleep", "seconds": 30.0}, deadline_s=0.2)
                assert pool.stats()["deadline_kills"] == 1
                # the slot came back: the pool still serves
                assert pool.call({"kind": "ping"}) == "pong"
        assert any(s.detail == "service/deadline-kill#0" for s in rec.spans)

    def test_run_task_fallback_matches_worker(self):
        # the in-process degradation path runs the same _run_task
        program, env = CORPUS[0]
        with WorkerSupervisor(1, MODEL) as pool:
            from repro.service.plan import compile_plan

            plan = compile_plan(program)
            task = {
                "kind": "solve", "program": program,
                "generated": plan.generated, "nprocs": 4,
                "env": env, "execute": False,
            }
            remote = pool.call(task)
        local = _run_task(task, MODEL)

        def norm(outcome):
            # one pickle round trip normalizes object-graph sharing
            # (remote results already crossed the pipe once)
            return pickle.dumps(pickle.loads(pickle.dumps(outcome)))

        assert norm(remote) == norm(local)


class TestServicePool:
    def test_pool_results_bit_identical_to_in_process(self):
        ref = serve_corpus(CompileService(machine=MODEL, cache=None))
        got = serve_corpus(CompileService(machine=MODEL, cache=None, workers=2))
        assert outcome_bytes(ref) == outcome_bytes(got)

    def test_pool_solves_under_a_reassigned_machine(self):
        # workers keep the model they were spawned with; a solve must use
        # the one its key names
        program, env = CORPUS[0]
        slower = MachineModel(tf=1, tc=40)
        with CompileService(machine=MODEL, workers=1) as svc:
            first = svc.compile(program, nprocs=4, env=env)
            svc.machine = slower
            moved = svc.compile(program, nprocs=4, env=env)
        # codegen + solve, then the new solve alone: all on the pool
        assert (moved.service_stats["pool_dispatched"], moved.service_stats["fallbacks"]) == (3, 0)
        assert moved.solve_key != first.solve_key and not moved.solve_cached
        local = first.plan.solve(4, env, model=slower)
        assert moved.outcome.cost == local.cost != first.outcome.cost

    def test_crash_drill_bit_identical_with_visible_retries(self):
        """The ISSUE 8 acceptance drill: kill workers mid-run, results
        must not change and the faults must be visible in stats."""
        ref = serve_corpus(CompileService(machine=MODEL, cache=None))
        chaos = CompileService(
            machine=MODEL, cache=None, workers=2, chaos_kill_requests=(0, 3),
        )
        got = [
            chaos.compile(program, nprocs=4, env=env)
            for program, env in CORPUS
        ]
        stats = got[-1].service_stats
        chaos.close()
        assert outcome_bytes(ref) == outcome_bytes(got)
        assert stats["pool_crashes"] == 2
        assert stats["pool_respawns"] == 2
        assert stats["pool_retries"] == 2
        assert stats["fallbacks"] == 0

    def test_pool_exhaustion_degrades_to_in_process(self):
        ref = serve_corpus(CompileService(machine=MODEL, cache=None))
        svc = CompileService(
            machine=MODEL, cache=None, workers=1,
            worker_retry_budget=0, worker_max_respawns=0,
            worker_backoff_s=0.0, chaos_kill_requests=range(1000),
        )
        got = [
            svc.compile(program, nprocs=4, env=env)
            for program, env in CORPUS
        ]
        stats = got[-1].service_stats
        svc.close()
        assert outcome_bytes(ref) == outcome_bytes(got)
        assert stats["fallbacks"] >= 1  # degradation is counted, not silent

    def test_degrade_off_surfaces_worker_crashed_error(self):
        svc = CompileService(
            machine=MODEL, cache=None, workers=1, degrade=False,
            worker_retry_budget=0, worker_max_respawns=0,
            worker_backoff_s=0.0, chaos_kill_requests=range(1000),
        )
        program, env = CORPUS[0]
        with pytest.raises(WorkerCrashedError):
            svc.compile(program, nprocs=4, env=env)
        svc.close()

    def test_metrics_carry_pool_counters(self):
        svc = CompileService(machine=MODEL, workers=1, chaos_kill_requests=(0,))
        program, env = CORPUS[0]
        res = svc.compile(program, nprocs=4, env={**env, "maxiter": 1})
        run = res.run()
        svc.close()
        assert run.metrics.service["pool_crashes"] == 1
        assert run.metrics.service["pool_respawns"] == 1
        assert run.metrics.service["fallbacks"] == 0


class TestDeadlinesAndAdmission:
    def test_job_wait_timeout_cancels_pending_job(self):
        svc = CompileService(machine=MODEL)  # no workers started
        job = svc.submit(CORPUS[0][0], nprocs=4, env=CORPUS[0][1])
        with pytest.raises(DeadlineExceededError, match="before a worker claimed"):
            job.wait(timeout=0.05)
        assert job.cancelled and job.done
        # a worker starting later skips the cancelled job cleanly
        svc.start(workers=1)
        ok = svc.submit(CORPUS[0][0], nprocs=4, env=CORPUS[0][1])
        assert ok.wait(timeout=60).outcome is not None
        svc.close()

    def test_cancelled_job_raises_on_every_wait(self):
        svc = CompileService(machine=MODEL)
        job = svc.submit(CORPUS[0][0])
        assert job.cancel()
        with pytest.raises(DeadlineExceededError):
            job.wait()
        assert not job.cancel()  # idempotent: already cancelled

    def test_admission_queue_sheds_load(self):
        svc = CompileService(machine=MODEL, queue_limit=2)
        svc.submit(CORPUS[0][0])
        svc.submit(CORPUS[1][0])
        with pytest.raises(ServiceOverloadedError) as info:
            svc.submit(CORPUS[2][0])
        assert info.value.depth == 2 and info.value.limit == 2
        # draining the queue re-opens admission
        svc.start(workers=2)
        svc._queue.join()
        job = svc.submit(CORPUS[2][0])
        assert job.wait(timeout=60) is not None
        svc.close()

    def test_expired_deadline_between_stages(self):
        svc = CompileService(machine=MODEL, cache=None, deadline_s=0.0)
        with pytest.raises(DeadlineExceededError):
            svc.compile(CORPUS[0][0], nprocs=4, env=CORPUS[0][1])
        svc.close()

    def test_per_request_deadline_overrides_service_default(self):
        svc = CompileService(machine=MODEL, cache=None, deadline_s=0.0)
        res = svc.compile(
            CORPUS[0][0], nprocs=4, env=CORPUS[0][1], deadline_s=60.0
        )
        assert res.outcome is not None
        svc.close()
