"""Inspector/executor contract: purity, exactness, engine parity.

The three ISSUE 9 hypothesis properties over random CSR patterns:

(a) schedules are a pure function of (pattern, placement) — same digest
    implies bit-identical schedule;
(b) the executor SpMV matches the single-rank numpy reference exactly
    (zero tolerance);
(c) event and threaded engines produce identical timestamps for sparse
    CG.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distribution.sparse import SparsePlacement
from repro.errors import DistributionError
from repro.kernels.sparse_cg import sparse_cg_parallel
from repro.kernels.spmv import spmv_parallel
from repro.machine import MachineModel, Ring, run_spmd
from repro.machine.threaded import run_spmd_threaded
from repro.pipeline.inspector import (
    CommSchedule,
    build_comm_schedule,
    cached_comm_schedule,
    gather_ghosts,
    inspector_exchange,
    spmv_local,
)
from repro.service.cache import PlanCache
from repro.sparse.csr import (
    CSRMatrix,
    random_pattern,
    random_spd_csr,
    spmv_reference,
)


@st.composite
def pattern_case(draw):
    n = draw(st.integers(4, 24))
    nprocs = draw(st.integers(2, 6))
    density = draw(st.floats(0.05, 0.6))
    seed = draw(st.integers(0, 10_000))
    return n, nprocs, density, seed


class TestScheduleProperties:
    @settings(max_examples=25, deadline=None)
    @given(pattern_case())
    def test_pure_function_of_pattern_and_placement(self, case):
        n, nprocs, density, seed = case
        pat = random_pattern(n, n, density, seed=seed)
        a = build_comm_schedule(SparsePlacement(pat, nprocs))
        b = build_comm_schedule(SparsePlacement(pat, nprocs))
        assert a.digest == b.digest
        assert a.content_equal(b)

    @settings(max_examples=25, deadline=None)
    @given(pattern_case())
    def test_executor_spmv_exact(self, case):
        n, nprocs, density, seed = case
        pat = random_pattern(n, n, density, seed=seed)
        rng = np.random.default_rng(seed)
        csr = CSRMatrix(pat, rng.uniform(-1, 1, size=pat.nnz))
        x = rng.standard_normal(n)
        yref = spmv_reference(csr, x)
        schedule = build_comm_schedule(SparsePlacement(pat, nprocs))

        def prog(p):
            local = schedule.rank_schedule(p.rank)
            xloc = x[local.col_lo : local.col_hi]
            dloc = csr.data[pat.indptr[local.row_lo] : pat.indptr[local.row_hi]]
            ghosts = yield from gather_ghosts(p, local, xloc)
            return spmv_local(local, dloc, xloc, ghosts)

        res = run_spmd(prog, Ring(nprocs), MachineModel())
        y = np.concatenate(
            [np.atleast_1d(res.values[r]) for r in range(nprocs)]
        )
        assert (y == yref).all()
        # Measured gather traffic reconciles with the analytic count
        # exactly — the sparse-redist-words contract.
        assert (
            res.metrics.scope_totals("sparse-gather").words
            == schedule.gather_words
        )

    @settings(max_examples=8, deadline=None)
    @given(pattern_case())
    def test_sparse_cg_engine_parity(self, case):
        n, nprocs, density, seed = case
        csr = random_spd_csr(n, density=density, seed=seed)
        b = np.random.default_rng(seed + 1).standard_normal(n)
        kwargs = {"tol": 1e-10, "max_iterations": 2 * n}
        ev = run_spmd(
            sparse_cg_parallel, Ring(nprocs), MachineModel(),
            args=(csr, b), kwargs=kwargs,
        )
        th = run_spmd_threaded(
            sparse_cg_parallel, Ring(nprocs), MachineModel(),
            args=(csr, b), kwargs=kwargs,
        )
        assert ev.finish_times == th.finish_times
        x_ev, it_ev = ev.values[0]
        x_th, it_th = th.values[0]
        assert it_ev == it_th
        assert (x_ev == x_th).all()
        assert ev.message_words == th.message_words


class TestScheduleContents:
    def test_schedule_counts_match_placement_halo(self):
        pat = random_pattern(20, 20, 0.3, seed=4)
        pl = SparsePlacement(pat, 5)
        sched = build_comm_schedule(pl)
        assert sched.gather_words == pl.halo_words()
        sends = sum(len(r.send_to) for r in sched.ranks)
        assert sched.gather_messages == sends  # every recv has a send

    def test_pack_unpack_are_inverse(self):
        pat = random_pattern(18, 18, 0.4, seed=9)
        sched = build_comm_schedule(SparsePlacement(pat, 4))
        x = np.arange(18, dtype=np.float64)
        staged = {
            (r.rank, dest): x[r.col_lo : r.col_hi][pos]
            for r in sched.ranks
            for dest, pos in r.pack
        }
        for r in sched.ranks:
            buf = np.empty(len(r.ghosts))
            for (src, _), (_, pos) in zip(r.recv_from, r.unpack):
                buf[pos] = staged[(src, r.rank)]
            assert (buf == x[r.ghosts]).all()

    def test_rank_schedule_bounds_checked(self):
        sched = build_comm_schedule(
            SparsePlacement(random_pattern(8, 8, 0.5, seed=0), 2)
        )
        with pytest.raises(DistributionError):
            sched.rank_schedule(2)

    def test_content_equal_detects_divergence(self):
        a = build_comm_schedule(
            SparsePlacement(random_pattern(10, 10, 0.3, seed=1), 2)
        )
        b = build_comm_schedule(
            SparsePlacement(random_pattern(10, 10, 0.3, seed=2), 2)
        )
        assert not a.content_equal(b)


class TestScheduleCache:
    def test_plan_cache_round_trip(self):
        cache = PlanCache(capacity=4)
        pat = random_pattern(16, 16, 0.3, seed=6)
        first, hit1 = cached_comm_schedule(SparsePlacement(pat, 4), cache)
        again, hit2 = cached_comm_schedule(SparsePlacement(pat, 4), cache)
        assert (hit1, hit2) == (False, True)
        assert isinstance(again, CommSchedule)
        assert first.content_equal(again)
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_cache_distinguishes_nprocs(self):
        cache = PlanCache(capacity=4)
        pat = random_pattern(16, 16, 0.3, seed=6)
        _, _ = cached_comm_schedule(SparsePlacement(pat, 2), cache)
        _, hit = cached_comm_schedule(SparsePlacement(pat, 4), cache)
        assert not hit

    def test_disk_tier_survives_process_boundary(self, tmp_path):
        # A second cache instance over the same directory serves the
        # schedule without rebuilding — the cross-service warm path.
        pat = random_pattern(16, 16, 0.3, seed=8)
        c1 = PlanCache(capacity=2, disk_dir=tmp_path)
        built, hit = cached_comm_schedule(SparsePlacement(pat, 4), c1)
        assert not hit
        c2 = PlanCache(capacity=2, disk_dir=tmp_path)
        served, hit = cached_comm_schedule(SparsePlacement(pat, 4), c2)
        assert hit
        assert built.content_equal(served)

    def test_none_cache_always_builds(self):
        pat = random_pattern(8, 8, 0.5, seed=0)
        _, hit = cached_comm_schedule(SparsePlacement(pat, 2))
        assert not hit


class TestInspectorExchange:
    def test_on_machine_inspector_matches_offline_schedule(self):
        pat = random_pattern(24, 24, 0.25, seed=11)
        pl = SparsePlacement(pat, 4)
        sched = build_comm_schedule(pl)

        def prog(p):
            local = yield from inspector_exchange(p, pl)
            return (
                local.ghosts.tobytes(),
                tuple((d, idx.tobytes()) for d, idx in local.send_to),
            )

        res = run_spmd(prog, Ring(4), MachineModel())
        for rank in range(4):
            ghosts, send_to = res.values[rank]
            ref = sched.rank_schedule(rank)
            assert ghosts == ref.ghosts.tobytes()
            assert send_to == tuple(
                (d, idx.tobytes()) for d, idx in ref.send_to
            )
        # Request counts + index lists reconcile with the analytic
        # inspector volume exactly.
        assert (
            res.metrics.scope_totals("sparse-inspect").words
            == sched.inspector_words
        )

    def test_warm_schedule_skips_inspector_traffic(self):
        csr = random_spd_csr(24, density=0.2, seed=12)
        x = np.random.default_rng(3).standard_normal(24)
        sched = build_comm_schedule(SparsePlacement(csr.pattern, 4))
        cold = run_spmd(
            spmv_parallel, Ring(4), MachineModel(), args=(csr, x)
        )
        warm = run_spmd(
            spmv_parallel, Ring(4), MachineModel(),
            args=(csr, x), kwargs={"schedule": sched},
        )
        assert warm.metrics.scope_totals("sparse-inspect").words == 0
        assert cold.metrics.scope_totals("sparse-inspect").words > 0
        assert (warm.values[0] == cold.values[0]).all()
        assert warm.metrics.sparse["schedule_reuses"] == 1
        assert warm.metrics.sparse["inspector_runs"] == 0
        assert cold.metrics.sparse["schedule_builds"] == 1
