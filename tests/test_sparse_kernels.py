"""Sparse kernels, cost-model entries, metrics group and codegen parity."""

from __future__ import annotations

import numpy as np
import pytest

from repro.codegen.sparse import emit_sparse_spmv
from repro.codegen.spmd import load_generated
from repro.costmodel.bands import get_band
from repro.costmodel.sparse import (
    amortization_ratio,
    inspector_words,
    sparse_gather_words,
    spmv_sweep_time,
)
from repro.distribution.sparse import SparsePlacement
from repro.errors import DistributionError
from repro.kernels.sparse_cg import sparse_cg_parallel, sparse_cg_seq
from repro.kernels.spmv import spmv_parallel, spmv_seq
from repro.machine import MachineModel, Ring, run_spmd
from repro.machine.export import SPARSE_TID, chrome_trace_json, sparse_lane_events
from repro.machine.metrics import Metrics
from repro.machine.threaded import run_spmd_threaded
from repro.pipeline.inspector import build_comm_schedule, cached_comm_schedule
from repro.service.cache import PlanCache
from repro.sparse.csr import random_spd_csr, spmv_reference

N, P = 128, 8


@pytest.fixture(scope="module")
def system():
    csr = random_spd_csr(N, density=0.06, seed=42)
    rng = np.random.default_rng(7)
    return csr, rng.standard_normal(N), rng.standard_normal(N)


class TestSpmv:
    def test_parallel_matches_reference_bitwise(self, system):
        csr, x, _ = system
        yref = spmv_reference(csr, x)
        res = run_spmd(spmv_parallel, Ring(P), MachineModel(), args=(csr, x))
        for rank in range(P):
            assert (res.values[rank] == yref).all()

    def test_seq_alias(self, system):
        csr, x, _ = system
        assert (spmv_seq(csr, x) == spmv_reference(csr, x)).all()

    def test_iterated_gather_words_reconcile(self, system):
        csr, x, _ = system
        sched = build_comm_schedule(SparsePlacement(csr.pattern, P))
        res = run_spmd(
            spmv_parallel, Ring(P), MachineModel(),
            args=(csr, x), kwargs={"iterations": 5},
        )
        measured = res.metrics.scope_totals("sparse-gather").words
        analytic = sparse_gather_words(sched, iterations=5)
        band = get_band("sparse-redist-words")
        assert band.check(measured / analytic)
        assert measured == analytic  # the executor contract is exact

    def test_aggregation_preserves_words_and_values(self, system):
        csr, x, _ = system
        plain = run_spmd(spmv_parallel, Ring(P), MachineModel(), args=(csr, x))
        bundled = run_spmd(
            spmv_parallel, Ring(P), MachineModel(),
            args=(csr, x), kwargs={"aggregate_words": 64},
        )
        assert (plain.values[0] == bundled.values[0]).all()
        assert (
            plain.metrics.scope_totals("sparse-gather").words
            == bundled.metrics.scope_totals("sparse-gather").words
        )


class TestSparseCG:
    def test_converges_bit_identically_on_both_engines(self, system):
        # The ISSUE 9 acceptance criterion: >= 8-rank row partition,
        # bit-identical to the single-rank reference on both engines.
        csr, _, b = system
        xref, iters = sparse_cg_seq(csr, b, tol=1e-10, blocks=P)
        ev = run_spmd(
            sparse_cg_parallel, Ring(P), MachineModel(),
            args=(csr, b), kwargs={"tol": 1e-10},
        )
        th = run_spmd_threaded(
            sparse_cg_parallel, Ring(P), MachineModel(),
            args=(csr, b), kwargs={"tol": 1e-10},
        )
        for res in (ev, th):
            x, used = res.values[0]
            assert used == iters
            assert (x == xref).all()
        assert ev.finish_times == th.finish_times

    def test_blocked_reference_agrees_with_plain(self, system):
        csr, _, b = system
        xp, _ = sparse_cg_seq(csr, b, tol=1e-10, blocks=P)
        x1, _ = sparse_cg_seq(csr, b, tol=1e-10, blocks=1)
        assert np.allclose(xp, x1, atol=1e-8)
        assert np.linalg.norm(csr.to_dense() @ xp - b) < 1e-6

    def test_warm_schedule_short_circuits_inspector(self, system):
        csr, _, b = system
        sched = build_comm_schedule(SparsePlacement(csr.pattern, P))
        warm = run_spmd(
            sparse_cg_parallel, Ring(P), MachineModel(),
            args=(csr, b), kwargs={"tol": 1e-10, "schedule": sched},
        )
        cold = run_spmd(
            sparse_cg_parallel, Ring(P), MachineModel(),
            args=(csr, b), kwargs={"tol": 1e-10},
        )
        assert warm.metrics.scope_totals("sparse-inspect").words == 0
        assert (warm.values[0][0] == cold.values[0][0]).all()

    @pytest.mark.parametrize("runner", [run_spmd, run_spmd_threaded])
    @pytest.mark.parametrize("kernel", [spmv_parallel, sparse_cg_parallel])
    def test_foreign_schedule_rejected(self, system, kernel, runner):
        # Unchecked, a schedule for another rank count dies deep in the
        # engine and one for another pattern of the same shape in NumPy
        # broadcasting; both are refused by content address.
        csr, x, _ = system
        other = random_spd_csr(N, density=0.06, seed=43)
        here = SparsePlacement(csr.pattern, P).digest
        for placement in (
            SparsePlacement(csr.pattern, 2 * P), SparsePlacement(other.pattern, P),
        ):
            foreign = build_comm_schedule(placement)
            with pytest.raises(DistributionError) as err:
                runner(kernel, Ring(P), MachineModel(), args=(csr, x),
                       kwargs={"schedule": foreign})
            assert foreign.digest in str(err.value) and here in str(err.value)

    def test_warm_cached_schedule_passes_the_check(self, system):
        csr, x, _ = system
        cache = PlanCache(capacity=2)
        cached_comm_schedule(SparsePlacement(csr.pattern, P), cache)
        sched, hit = cached_comm_schedule(SparsePlacement(csr.pattern, P), cache)
        assert hit
        res = run_spmd(spmv_parallel, Ring(P), MachineModel(), args=(csr, x),
                       kwargs={"schedule": sched})
        assert (res.values[0] == spmv_reference(csr, x)).all()
        assert res.metrics.sparse["schedule_reuses"] == 1

    def test_pattern_digest_is_hashed_once_and_stays_out_of_pickles(self, system):
        import pickle

        pattern = random_spd_csr(32, density=0.1, seed=3).pattern
        before = pickle.dumps(pattern)
        assert pattern.digest is pattern.digest  # memoized, not re-hashed
        assert pickle.dumps(pattern) == before
        assert pickle.loads(before).digest == pattern.digest

    def test_non_square_rejected(self):
        from repro.errors import ReproError
        from repro.sparse.csr import random_pattern, CSRMatrix

        pat = random_pattern(4, 6, 0.5, seed=0)
        csr = CSRMatrix(pat, np.ones(pat.nnz))
        with pytest.raises(ReproError):
            sparse_cg_seq(csr, np.ones(4))


class TestSparseCostModel:
    def test_counts_read_off_schedule(self, system):
        csr, _, _ = system
        sched = build_comm_schedule(SparsePlacement(csr.pattern, P))
        assert sparse_gather_words(sched) == sched.gather_words
        assert sparse_gather_words(sched, 3) == 3 * sched.gather_words
        assert inspector_words(sched) == sched.inspector_words

    def test_sweep_time_positive_and_split(self, system):
        csr, _, _ = system
        sched = build_comm_schedule(SparsePlacement(csr.pattern, P))
        t = spmv_sweep_time(sched, csr.nnz, MachineModel(tf=1, tc=10, alpha=5))
        assert t.comp > 0 and t.comm > 0
        assert t.total == t.comp + t.comm

    def test_amortization_grows_with_iterations(self, system):
        csr, _, _ = system
        sched = build_comm_schedule(SparsePlacement(csr.pattern, P))
        r1 = amortization_ratio(sched, csr.nnz, 1)
        r10 = amortization_ratio(sched, csr.nnz, 10)
        assert r10 > r1 >= 1.0

    def test_bands_registered(self):
        assert get_band("sparse-redist-words").lower == 1.0
        assert get_band("inspector-amortization").lower > 1.0


class TestSparseMetrics:
    def test_stamped_group_round_trips(self, system):
        csr, x, _ = system
        res = run_spmd(
            spmv_parallel, Ring(P), MachineModel(),
            args=(csr, x), kwargs={"iterations": 2},
        )
        m = res.metrics
        assert m.sparse["iterations"] == 2
        assert m.sparse["gather_words_per_iter"] > 0
        snap = m.as_dict()
        assert "sparse" in snap
        back = Metrics.from_dict(snap)
        assert back.sparse == m.sparse
        assert back.as_dict() == snap
        assert "Sparse inspector/executor" in m.summary()

    def test_absent_group_keeps_snapshots_identical(self):
        # Pre-sparse snapshots must not grow a key.
        m = Metrics(2)
        assert "sparse" not in m.as_dict()

    def test_perfetto_lane(self, system):
        csr, x, _ = system
        res = run_spmd(
            spmv_parallel, Ring(P), MachineModel(),
            args=(csr, x), trace=True,
        )
        events = sparse_lane_events(res.metrics.sparse)
        assert events[0]["args"]["name"] == "sparse"
        assert all(e["tid"] == SPARSE_TID for e in events)
        counters = {e["name"]: e["args"]["value"] for e in events[1:]}
        assert counters["sparse/schedule_builds"] == 1
        doc = chrome_trace_json(res.trace, sparse=res.metrics.sparse)
        assert any(
            e.get("tid") == SPARSE_TID for e in doc["traceEvents"]
        )


class TestSparseCodegen:
    def test_generated_program_matches_library_kernel(self, system):
        csr, x, _ = system
        gen = emit_sparse_spmv(P, iterations=2)
        assert "inspector" in gen.source and "executor" in gen.source
        assert gen.strategy == "sparse-inspector-executor"
        fn = load_generated(gen)
        res_gen = run_spmd(
            fn, Ring(P), MachineModel(), args=({"A": csr, "x": x},)
        )
        res_lib = run_spmd(
            spmv_parallel, Ring(P), MachineModel(),
            args=(csr, x), kwargs={"iterations": 2},
        )
        yref = spmv_reference(csr, x)
        assert (res_gen.values[0] == yref).all()
        assert res_gen.message_words == res_lib.message_words
        assert max(res_gen.finish_times) == max(res_lib.finish_times)

    def test_generated_program_accepts_warm_schedule(self, system):
        csr, x, _ = system
        sched = build_comm_schedule(SparsePlacement(csr.pattern, P))
        fn = load_generated(emit_sparse_spmv(P))
        res = run_spmd(
            fn, Ring(P), MachineModel(),
            args=({"A": csr, "x": x, "schedule": sched},),
        )
        assert (res.values[0] == spmv_reference(csr, x)).all()
        assert res.metrics.scope_totals("sparse-inspect").words == 0

    def test_emit_validation(self):
        from repro.errors import CodegenError

        with pytest.raises(CodegenError):
            emit_sparse_spmv(0)
        with pytest.raises(CodegenError):
            emit_sparse_spmv(4, iterations=0)
