"""X10 — software latency hiding with nonblocking isend/irecv.

The paper's §5 closing remark promises further gains "if the hardware
supports overlaying the computation and the communication".  A3b toggles
that as a pure *model* knob (``MachineModel(overlap=True)``); this
benchmark gets the same effect in *software*: each kernel is rewritten
into post-irecv -> isend -> compute-interior -> wait -> compute-boundary
form over the nonblocking layer, and measured against its blocking twin
across the alpha sweep.

Asserted shapes:

* numerics of every overlapped kernel are bit-identical to its blocking
  twin at every alpha (the rewrite reorders communication, never
  arithmetic);
* the overlapped stencil and ring Jacobi beat their blocking twins at
  alpha in {10, 100} (and the measured/predicted ratio stays inside the
  report's slack band);
* at alpha = 1000 the posted path's extra startup (2 alpha per transfer
  vs alpha + w tc end-to-end) can cross over — documented, not asserted;
* aggregating many small isends into bundles cuts the wire message count
  (one alpha per bundle instead of per message).
"""

from __future__ import annotations

import numpy as np

from repro.costmodel.bands import OVERLAP_MAKESPAN
from repro.kernels import (
    heat_stencil_blocking,
    heat_stencil_overlap,
    jacobi_ring_blocking,
    jacobi_ring_overlap,
    make_spd_system,
    sor_pipelined,
    sor_pipelined_overlap,
)
from repro.machine import MachineModel, NBComm, Ring, run_spmd, waitall
from repro.util.tables import Table

ALPHAS = [0.0, 10.0, 100.0, 1000.0]
N = 8


def sweep():
    from dataclasses import replace

    m_heat, steps = 256, 5
    m_ring, iters = 64, 3
    rng = np.random.default_rng(10)
    u0 = rng.normal(size=m_heat)
    A, b, _ = make_spd_system(m_ring, seed=10)
    x0 = np.zeros(m_ring)
    blk = m_ring // N

    kernels = {
        "stencil": (heat_stencil_blocking, heat_stencil_overlap,
                    (u0, steps), m_heat // N),
        "jacobi": (jacobi_ring_blocking, jacobi_ring_overlap,
                   (A, b, x0, iters), blk),
        "sor": (sor_pipelined, sor_pipelined_overlap,
                (A, b, x0, 1.1, iters), blk),
    }
    rows = []
    for name, (blocking, overlapped, args, width) in kernels.items():
        whole = blocking is sor_pipelined  # allgather-finishing reference
        for alpha in ALPHAS:
            model = MachineModel(tf=1, tc=10, alpha=alpha)
            rb = run_spmd(blocking, Ring(N), model, args=args)
            ro = run_spmd(overlapped, Ring(N), model, args=args)
            rp = run_spmd(blocking, Ring(N), replace(model, overlap=True),
                          args=args)
            bit = all(
                np.array_equal(
                    rb.value(r)[r * width:(r + 1) * width] if whole
                    else rb.value(r),
                    ro.value(r),
                )
                for r in range(N)
            )
            rows.append((name, alpha, rb.makespan, ro.makespan, rp.makespan,
                         bit))
    return rows


def aggregation_demo():
    """Many one-word isends, with and without the aggregation buffer."""
    k = 16

    def chatter(p, aggregate):
        comm = NBComm(p, aggregate_words=aggregate)
        if p.rank == 0:
            reqs = [comm.isend(1, float(i), words=1, tag=3) for i in range(k)]
            yield from waitall(reqs)
            return None
        reqs = [comm.irecv(0, tag=3) for _ in range(k)]
        return (yield from waitall(reqs))

    rows = []
    for aggregate in (0, 8):
        res = run_spmd(chatter, Ring(2),
                       MachineModel(tf=1, tc=1, alpha=100.0),
                       args=(aggregate,))
        rows.append((aggregate, res.message_count, res.makespan,
                     res.value(1)))
    return rows


def test_x10_overlap(benchmark, emit, record):
    rows = benchmark(sweep)
    for name, alpha, tb, to, tp, _bit in rows:
        record(
            f"{name}-alpha{alpha:g}",
            makespan=to,
            analytic=tp,
            band="overlap-makespan",
            extra={"t_blocking": tb},
        )

    t1 = Table(
        ["kernel", "alpha", "T blocking", "T overlapped", "T predicted",
         "speedup", "bit-identical"],
        title=f"X10a — blocking vs overlapped twins (N={N}, tf=1, tc=10)",
    )
    for name, alpha, tb, to, tp, bit in rows:
        t1.add_row([name, f"{alpha:g}", f"{tb:g}", f"{to:g}", f"{tp:g}",
                    f"{tb / to:.2f}x", "yes" if bit else "NO"])

    agg = aggregation_demo()
    t2 = Table(
        ["aggregate_words", "wire messages", "makespan", "values intact"],
        title="X10b — aggregation: 16 one-word isends, alpha=100",
    )
    expected = [float(i) for i in range(16)]
    for aggregate, msgs, makespan, values in agg:
        t2.add_row([aggregate, msgs, f"{makespan:g}",
                    "yes" if values == expected else "NO"])
    emit("x10_overlap", t1.render() + "\n\n" + t2.render())
    for aggregate, msgs, makespan, _values in agg:
        record(
            f"aggregation-{aggregate}",
            makespan=makespan,
            message_count=msgs,
        )
    emit.json(
        "x10_overlap",
        {
            "kernels": [
                {
                    "kernel": name,
                    "alpha": alpha,
                    "t_blocking": tb,
                    "t_overlapped": to,
                    "t_predicted": tp,
                    "bit_identical": bit,
                }
                for name, alpha, tb, to, tp, bit in rows
            ],
            "aggregation": [
                {"aggregate_words": a, "wire_messages": msgs, "makespan": t}
                for a, msgs, t, _v in agg
            ],
        },
    )

    # The rewrite never changes numerics.
    assert all(bit for *_rest, bit in rows)
    for name, alpha, tb, to, tp, _bit in rows:
        if name in ("stencil", "jacobi") and alpha in (10.0, 100.0):
            # Latency hiding wins whenever compute can cover the wire.
            assert to < tb, (name, alpha)
            assert OVERLAP_MAKESPAN.check(to / tp), (name, alpha)
    # Aggregation coalesces 16 messages into 2 bundles and wins on alpha.
    (_, msgs_plain, t_plain, _), (_, msgs_agg, t_agg, _) = agg
    assert msgs_plain == 16 and msgs_agg == 2
    assert t_agg < t_plain
