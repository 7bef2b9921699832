"""Every metric the benchmark prints, declared once.

``BENCHMARK.json`` at the repository root is this table rendered by
``python perf/registry.py`` (the smoke test fails when the two differ).
Beyond the contract's ``name``/``unit``/``better`` a per-layer metric
records here whether it is *exact* (a count that must repeat bit for
bit) and which workloads' ``op_ms`` it is expected to *move* — the
interaction table later performance issues are held to.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass

RUN_SECONDS = 10

WORKLOADS = {
    "compile-cold": (
        "12 seeded programs through a fresh memory-cache Session: every compiler layer does "
        "its full work (parse to Algorithm 1 to cache writes), the simulator none"
    ),
    "compile-warm": (
        "same corpus as DSL, json-ir and alpha-twin on a pre-warmed Session: front ends, "
        "normalize and cache reads only; the bypass for compile-cold optimisations"
    ),
    "compile-disk-warm": (
        "same 36 requests on a fresh disk-tier Session over a populated directory: first "
        "touches are disk read, checksum and promotion; read side of the cache's write cost"
    ),
    "sim-collective": (
        "allreduce stress N=1024, 2-D Jacobi on a 32x32 grid and a mid-program redistribution, "
        "untraced: engine loop, collectives, payload accounting; compiler idle"
    ),
    "sim-scheduler": (
        "timeout storm on 4096 ranks: deadline calendar and stall path only, no collectives "
        "or payloads; the bypass for data-plane work and guard of the scheduler core"
    ),
    "journey": (
        "the paper's four programs from source text through cold compile to an untraced run: "
        "the user's whole path to a result"
    ),
    "journey-trace": (
        "same four programs, traced run, Chrome export, trace store and diagnosis: where "
        "trace, export and obs work shows and compile or engine work only by its share"
    ),
    "sparse-cg": (
        "inspector on an empty cache, 20 CG iterations and 8 SpMV sweeps on a seeded sparse SPD "
        "system: inspector, nonblocking gathers, sparse kernels no dense workload touches"
    ),
}

#: (name, unit, better, bound)
END_TO_END = [
    ("op_ms", "ms", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
]

ALL = tuple(WORKLOADS)
WARM = ("compile-warm", "compile-disk-warm")
SIMS = ("sim-collective", "sim-scheduler", "journey", "journey-trace", "sparse-cg")
JOURNEYS = ("journey", "journey-trace")


@dataclass(frozen=True)
class Layer:
    name: str
    unit: str
    better: str
    moves: tuple[str, ...]  # workloads whose op_ms this should move; () = none gated
    exact: bool = False


#: Layers the traced pass opens spans for; each yields ``<layer>.self_ms``
#: and ``<layer>.calls`` per operation of the workload being run (0 where
#: the workload never enters the layer — that *is* the bypass evidence).
SPAN_LAYERS = {
    "lang.parse": ("compile-cold", *WARM),
    "service.guests.lower": WARM,
    "service.normalize.canonicalize": ("compile-cold", *WARM),
    "service.normalize.digest": WARM,
    "service.cache.lookup": WARM,
    "service.cache.put": ("compile-cold",),
    "service.compiler": JOURNEYS,
    "alignment.segment": ("compile-cold",),
    "costmodel.loopcost": ("compile-cold",),
    "dp.tables": ("compile-cold",),
    "dp.algorithm1": ("compile-cold",),
    "distribution.redistribution": ("compile-cold",),
    "codegen.generate": ("compile-cold",),
    "codegen.load": JOURNEYS,
    "machine.engine": SIMS,
    "machine.export": ("journey-trace",),
    "obs.store": ("journey-trace",),
    "obs.diagnose": ("journey-trace",),
    "machine.critpath": ("journey-trace",),
    "pipeline.inspector": ("sparse-cg",),
    "bench.request": (),
}


def _layers() -> list[Layer]:
    out: list[Layer] = []
    for layer, moves in SPAN_LAYERS.items():
        out.append(Layer(f"{layer}.self_ms", "ms", "lower", moves))
        out.append(Layer(f"{layer}.calls", "count", "lower", moves, exact=True))

    def add(name, unit, better="lower", moves=(), exact=False):
        out.append(Layer(name, unit, better, tuple(moves), exact))

    # -- the run itself ---------------------------------------------------
    add("bench.plain_op_ms", "ms", moves=ALL)
    add("bench.tracing_overhead_ratio", "ratio")
    add("bench.span_coverage", "ratio", "higher")
    add("bench.units_per_op", "count", exact=True)
    add("bench.us_per_unit", "us", moves=ALL)
    add("host.calib_ms", "ms")
    add("host.noisy_ops", "count")
    add("host.tracemalloc_peak_mb", "MB", moves=ALL)
    add("model.cost", "model_units", exact=True)
    add("model.events", "count", exact=True)
    add("model.message_words", "count", exact=True)

    # -- probes: fixed inputs, the same in every workload's traced run ----
    add("lang.parse_kchars_per_s", "kchar/s", "higher", ("compile-cold", *WARM))
    for guest in ("dsl", "json-ir", "python-ast"):
        add(f"service.guests.lower_ms.{guest}", "ms", moves=WARM)
    add("service.normalize.canonical_bytes", "bytes", exact=True)
    add("service.cache.put_ms", "ms", moves=("compile-cold",))
    add("service.cache.lookup_ms", "ms", moves=("compile-warm",))
    add("service.cache.disk_put_ms", "ms")
    add("service.cache.disk_lookup_ms", "ms", moves=("compile-disk-warm",))
    add("service.cache.entry_bytes", "bytes", moves=WARM, exact=True)
    add("service.cache.hit_rate", "ratio", "higher", exact=True)
    for prog in ("jacobi", "sor", "gauss", "matmul"):
        add(f"service.compiler.cold_ms.{prog}", "ms", moves=JOURNEYS)
    add("service.supervisor.spawn_ms", "ms")
    add("service.supervisor.roundtrip_ms", "ms")
    add("distribution.redistribution.plan_ms", "ms")
    add("distribution.runtime.lower_cold_ms", "ms", moves=("sim-collective",))
    add("distribution.runtime.lower_warm_us", "us", moves=("sim-collective",))
    add("distribution.runtime.redist_words.multiphase_n64", "count", exact=True)
    add("codegen.source_bytes", "bytes", exact=True)
    for prog in ("jacobi", "sor", "gauss", "matmul"):
        add(f"codegen.run_ms.{prog}", "ms", moves=JOURNEYS)
    for prog in ("jacobi", "sor"):
        add(f"codegen.generated_vs_library.{prog}", "ratio", moves=JOURNEYS)
    for case in ("stress_n256", "stress_n1024", "stress_n4096", "grid2d_n1024",
                 "multiphase_n64", "pingpong_w8", "pingpong_w8192", "pingpong_dict"):
        add(f"machine.engine.us_per_event.{case}", "us", moves=("sim-collective", *JOURNEYS))
    for case in ("storm_n256", "storm_n4096"):
        add(f"machine.engine.us_per_event.{case}", "us", moves=("sim-scheduler",))
    for case in ("stress_n1024", "grid2d_n1024", "multiphase_n64", "storm_n4096"):
        add(f"machine.engine.events.{case}", "count", exact=True)
    add("machine.engine.flatness.stress", "ratio", moves=("sim-collective",))
    add("machine.engine.flatness.storm", "ratio", moves=("sim-scheduler",))
    add("machine.engine.setup_us_per_rank", "us", moves=("sim-scheduler", "sim-collective"))
    for coll in ("bcast", "reduce", "allreduce", "allgather", "shift", "exchange"):
        add(f"machine.collectives.us_per_event.{coll}", "us", moves=("sim-collective", *JOURNEYS))
    for twin in ("heat_overlap", "heat_blocking"):
        add(f"machine.nonblocking.us_per_event.{twin}", "us", moves=("sparse-cg",))
    for case in ("sor_n16", "grid2d_n1024", "stress_n1024"):
        add(f"machine.trace.overhead_ratio.{case}", "ratio", moves=("journey-trace",))
    add("machine.metrics.as_dict_ms", "ms", moves=("journey-trace",))
    add("machine.critpath.ms_per_kevent", "ms", moves=("journey-trace",))
    add("machine.export.chrome_ms_per_kevent", "ms", moves=("journey-trace",))
    add("obs.store.from_run_ms_per_kevent", "ms", moves=("journey-trace",))
    add("obs.store.query_ms", "ms")
    add("obs.diagnose.attribute_waits_ms", "ms", moves=("journey-trace",))
    add("obs.diagnose.load_imbalance_ms", "ms", moves=("journey-trace",))
    add("machine.threaded.run_ms.jacobi_n16", "ms")
    add("pipeline.inspector.build_ms", "ms", moves=("sparse-cg",))
    add("pipeline.inspector.cache_hit_us", "us")
    add("pipeline.inspector.schedule_bytes", "bytes", exact=True)
    add("kernels.sparse_cg.us_per_event", "us", moves=("sparse-cg",))
    add("kernels.spmv.us_per_event", "us", moves=("sparse-cg",))
    add("kernels.sparse_cg.iterations", "count", exact=True)
    add("sparse.gather_words", "count", exact=True)
    return out


PER_LAYER = _layers()
UNITS = {name: unit for name, unit, _, _ in END_TO_END} | {l.name: l.unit for l in PER_LAYER}
EXACT = frozenset(l.name for l in PER_LAYER if l.exact)


def benchmark_json() -> dict:
    return {
        "command": ["python3", "perf/run.py"],
        "paths": ["perf"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": l.name, "unit": l.unit, "better": l.better} for l in PER_LAYER],
    }


if __name__ == "__main__":
    path = pathlib.Path(__file__).resolve().parent.parent / "BENCHMARK.json"
    path.write_text(json.dumps(benchmark_json(), indent=2) + "\n")
    print(f"wrote {path}: {len(WORKLOADS)} workloads, {len(END_TO_END)} end-to-end, "
          f"{len(PER_LAYER)} per-layer metrics")
