"""Overlapped kernels and the overlap scheduling/codegen pass.

The contract under test: rewriting a kernel into post-irecv -> isend ->
compute-interior -> wait -> compute-boundary form reorders communication
but never arithmetic, so

* overlapped numerics are bit-identical to the blocking twin;
* both backends agree on values AND makespan for the overlapped form;
* whenever compute can cover the wire (alpha in {10, 100} here), the
  overlapped twin is strictly faster.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codegen import generate_spmd, load_generated
from repro.codegen.stencil import SweepStmt, Sweep, match_stencil_sweep
from repro.errors import CodegenError
from repro.kernels import (
    heat_stencil_blocking,
    heat_stencil_overlap,
    jacobi_ring_blocking,
    jacobi_ring_overlap,
    make_spd_system,
    sor_pipelined,
    sor_pipelined_overlap,
)
from repro.lang import parse_program
from repro.machine import MachineModel, Ring, run_spmd
from repro.machine.nonblocking import PostedTransport
from repro.machine.threaded import run_spmd_threaded
from repro.pipeline.overlap import overlap_schedule, overlap_table

N = 8

HEAT = """\
PROGRAM heat
PARAM m, steps
SCALAR alpha
ARRAY Unew(m), Uold(m)
DO t = 1, steps
  DO i = 2, m - 1
    Unew(i) = Uold(i) + alpha * (Uold(i - 1) - 2 * Uold(i) + Uold(i + 1))
  END DO
  DO i = 2, m - 1
    Uold(i) = Unew(i)
  END DO
END DO
END
"""


def _heat_args(m=256, steps=4, seed=0):
    u0 = np.random.default_rng(seed).normal(size=m)
    return (u0, steps)


def _ring_args(m=64, iters=4, seed=3):
    A, b, _ = make_spd_system(m, seed=seed)
    return (A, b, np.zeros(m), iters)


class TestBitIdentity:
    @pytest.mark.parametrize("alpha", [0.0, 10.0, 100.0, 1000.0])
    def test_heat_overlap_bit_identical(self, alpha):
        model = MachineModel(tf=1, tc=10, alpha=alpha)
        args = _heat_args()
        rb = run_spmd(heat_stencil_blocking, Ring(N), model, args=args)
        ro = run_spmd(heat_stencil_overlap, Ring(N), model, args=args)
        for r in range(N):
            np.testing.assert_array_equal(rb.value(r), ro.value(r))

    @pytest.mark.parametrize("alpha", [0.0, 100.0])
    def test_jacobi_overlap_bit_identical(self, alpha):
        model = MachineModel(tf=1, tc=10, alpha=alpha)
        args = _ring_args()
        rb = run_spmd(jacobi_ring_blocking, Ring(N), model, args=args)
        ro = run_spmd(jacobi_ring_overlap, Ring(N), model, args=args)
        for r in range(N):
            np.testing.assert_array_equal(rb.value(r), ro.value(r))

    @pytest.mark.parametrize("alpha", [0.0, 100.0])
    def test_sor_overlap_bit_identical(self, alpha):
        model = MachineModel(tf=1, tc=10, alpha=alpha)
        A, b, x0, iters = _ring_args()
        blk = len(b) // N
        rb = run_spmd(sor_pipelined, Ring(N), model, args=(A, b, x0, 1.1, iters))
        ro = run_spmd(sor_pipelined_overlap, Ring(N), model,
                      args=(A, b, x0, 1.1, iters))
        for r in range(N):
            # The blocking reference allgather-finishes the whole vector;
            # the overlapped twin returns its local block.
            np.testing.assert_array_equal(
                rb.value(r)[r * blk:(r + 1) * blk], ro.value(r)
            )

    @pytest.mark.parametrize("alpha", [0.0, 100.0])
    def test_sor_overlap_is_the_fig6_body_under_the_posted_transport(self, alpha):
        """One sweep body: ``sor_pipelined``'s public ``transport=`` seam
        with a posted transport replays the overlap kernel event for
        event, up to the allgather the blocking entry point appends."""
        def posted(p, *args):
            return (yield from sor_pipelined(p, *args, transport=PostedTransport(p)))

        model = MachineModel(tf=1, tc=10, alpha=alpha)
        args = (*_ring_args()[:3], 1.1, 2)
        rp = run_spmd(posted, Ring(N), model, args=args, trace=True)
        ro = run_spmd(sor_pipelined_overlap, Ring(N), model, args=args, trace=True)
        for lane_p, lane_o in zip(rp.trace, ro.trace):
            events = [e.as_dict() for e in lane_o]
            assert [e.as_dict() for e in lane_p][: len(events)] == events

    def test_heat_matches_sequential_reference(self):
        u0, steps = _heat_args(m=64, steps=6, seed=1)
        coeff = 0.25
        res = run_spmd(heat_stencil_overlap, Ring(4),
                       MachineModel(tf=1, tc=10), args=(u0, steps, coeff))
        u = u0.copy()
        m = len(u)
        for _ in range(steps):
            new = u.copy()
            new[1:m - 1] = coeff * (u[:m - 2] + u[2:]) \
                + (1.0 - 2.0 * coeff) * u[1:m - 1]
            u = new
        got = np.concatenate([res.value(r) for r in range(4)])
        np.testing.assert_allclose(got, u, atol=1e-12)


class TestSpeedupAndMetrics:
    @pytest.mark.parametrize("alpha", [10.0, 100.0])
    def test_overlap_wins_when_compute_covers_wire(self, alpha):
        model = MachineModel(tf=1, tc=10, alpha=alpha)
        for blocking, overlapped, args in [
            (heat_stencil_blocking, heat_stencil_overlap, _heat_args()),
            (jacobi_ring_blocking, jacobi_ring_overlap, _ring_args()),
        ]:
            rb = run_spmd(blocking, Ring(N), model, args=args)
            ro = run_spmd(overlapped, Ring(N), model, args=args)
            assert ro.makespan < rb.makespan, blocking.__name__

    def test_overlap_ratio_reported_per_rank(self):
        res = run_spmd(heat_stencil_overlap, Ring(N),
                       MachineModel(tf=1, tc=10, alpha=100.0),
                       args=_heat_args())
        ratios = [r.overlap_ratio for r in res.metrics.ranks]
        assert all(0.0 < r <= 1.0 for r in ratios)
        # Interior ranks exchange on both sides yet hide everything.
        assert ratios[N // 2] == 1.0


class TestBackendParity:
    @settings(max_examples=6, deadline=None)
    @given(
        nprocs=st.sampled_from([2, 4, 8]),
        alpha=st.sampled_from([0.0, 10.0, 100.0]),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_heat_overlap_event_vs_threaded(self, nprocs, alpha, seed):
        model = MachineModel(tf=1, tc=10, alpha=alpha)
        args = _heat_args(m=64, steps=3, seed=seed)
        ev = run_spmd(heat_stencil_overlap, Ring(nprocs), model, args=args)
        th = run_spmd_threaded(heat_stencil_overlap, Ring(nprocs), model,
                               args=args)
        assert ev.makespan == th.makespan
        for r in range(nprocs):
            np.testing.assert_array_equal(ev.value(r), th.value(r))

    @settings(max_examples=4, deadline=None)
    @given(
        alpha=st.sampled_from([0.0, 100.0]),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_jacobi_overlap_event_vs_threaded(self, alpha, seed):
        model = MachineModel(tf=1, tc=10, alpha=alpha)
        args = _ring_args(m=32, iters=3, seed=seed)
        ev = run_spmd(jacobi_ring_overlap, Ring(4), model, args=args)
        th = run_spmd_threaded(jacobi_ring_overlap, Ring(4), model, args=args)
        assert ev.makespan == th.makespan
        for r in range(4):
            np.testing.assert_array_equal(ev.value(r), th.value(r))


class TestOverlapPass:
    def test_schedule_structure_for_heat(self):
        pattern = match_stencil_sweep(parse_program(HEAT))
        sched = overlap_schedule(pattern)
        assert len(sched.sweeps) == 2
        first, second = sched.sweeps
        # Sweep 1 reads Uold(i-1)/Uold(i+1): both halo sides exchanged.
        assert {(ex.array, ex.direction) for ex in first.exchanges} == {
            ("Uold", "left"), ("Uold", "right")
        }
        assert first.phases == ("irecv", "isend", "interior", "wait",
                                "boundary")
        assert (first.margin_left, first.margin_right) == (1, 1)
        # Sweep 2 copies pointwise: nothing to exchange.
        assert second.exchanges == () and second.phases == ("compute",)

    def test_analytic_model_predicts_hiding(self):
        pattern = match_stencil_sweep(parse_program(HEAT))
        sched = overlap_schedule(pattern)
        model = MachineModel(tf=1, tc=10, alpha=100.0)
        assert sched.speedup(model, cnt=32) > 1.0
        table = overlap_table(sched, model, cnt=32)
        assert "speedup" in table and "irecv -> isend" in table

    def test_unsound_sweep_rejected(self):
        # W is written by stmt 1, then read at a nonzero offset by stmt 2
        # in the same sweep: the interior pass would see stale boundary
        # elements of W.  (match_stencil_sweep never produces this shape;
        # the pass re-checks defensively.)
        sweep = Sweep(
            var="i", lb=None, ub=None,
            stmts=(
                SweepStmt(lhs_array="W", lhs_offset=0, rhs=None,
                          offsets=(("U", 0),)),
                SweepStmt(lhs_array="V", lhs_offset=0, rhs=None,
                          offsets=(("W", 1),)),
            ),
        )
        from repro.pipeline.overlap import _check_sound

        with pytest.raises(CodegenError, match="unsound"):
            _check_sound(sweep)


class TestOverlapCodegen:
    def _envs(self, m=32, steps=5):
        u0 = np.zeros(m)
        u0[m // 2] = 1.0
        return (
            {"m": m, "steps": steps, "alpha": 0.25,
             "Unew": np.zeros(m), "Uold": u0.copy()},
            {"m": m, "steps": steps, "alpha": 0.25,
             "Unew": np.zeros(m), "Uold": u0.copy()},
        )

    def test_generated_overlap_matches_blocking_codegen(self):
        program = parse_program(HEAT)
        gen_b = generate_spmd(program)
        gen_o = generate_spmd(program, strategy="stencil-overlap")
        assert gen_b.strategy == "stencil" and gen_o.strategy == "stencil-overlap"
        for phase in ("irecv", "isend", "wait"):
            assert phase in gen_o.source
        env_b, env_o = self._envs()
        model = MachineModel(tf=1, tc=10, alpha=100.0)
        rb = run_spmd(load_generated(gen_b), Ring(4), model, args=(env_b,))
        ro = run_spmd(load_generated(gen_o), Ring(4), model, args=(env_o,))
        for rank in range(4):
            for name in ("Uold", "Unew"):
                np.testing.assert_array_equal(
                    rb.value(rank)[name], ro.value(rank)[name]
                )
        assert ro.makespan < rb.makespan

    def test_generated_overlap_backend_parity(self):
        gen = generate_spmd(parse_program(HEAT), strategy="stencil-overlap")
        fn = load_generated(gen)
        model = MachineModel(tf=1, tc=10, alpha=10.0)
        env_a, env_b = self._envs(steps=3)
        ev = run_spmd(fn, Ring(4), model, args=(env_a,))
        th = run_spmd_threaded(fn, Ring(4), model, args=(env_b,))
        assert ev.makespan == th.makespan
        for rank in range(4):
            np.testing.assert_array_equal(
                ev.value(rank)["Uold"], th.value(rank)["Uold"]
            )
