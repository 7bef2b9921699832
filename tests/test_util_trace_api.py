"""Utility modules, trace rendering and the public API."""

from __future__ import annotations

import pathlib

import numpy as np
import pytest

import repro
import repro.api
from repro.machine import MachineModel, Ring, run_spmd
from repro.machine.trace import TraceEvent, busy_time, comm_time, gantt, trace_table
from repro.util.fmt import eng, fixed, ratio
from repro.util.tables import Table, render_grid


class TestFmt:
    def test_eng_milli(self):
        assert eng(0.00125, "s") == "1.25ms"

    def test_eng_kilo(self):
        assert eng(43_200, "flop") == "43.2kflop"

    def test_eng_zero(self):
        assert eng(0, "s") == "0s"

    def test_eng_negative(self):
        assert eng(-1500) == "-1.50k"

    def test_eng_inf(self):
        assert eng(float("inf")) == "inf"

    def test_fixed_strips_negative_zero(self):
        assert fixed(-0.0001, 2) == "0.00"

    def test_ratio(self):
        assert ratio(3.0, 1.5) == "2.00x"

    def test_ratio_zero_denominator(self):
        assert ratio(1.0, 0.0) == "inf"
        assert ratio(0.0, 0.0) == "n/a"


class TestTables:
    def test_render(self):
        t = Table(["a", "bb"], title="T")
        t.add_row([1, 22])
        text = t.render()
        assert text.splitlines()[0] == "T"
        assert "| 1" in text

    def test_row_width_mismatch(self):
        t = Table(["a"])
        with pytest.raises(ValueError):
            t.add_row([1, 2])

    def test_render_grid_labels(self):
        text = render_grid(
            [[1, 2], [3, 4]], row_labels=["r0", "r1"], col_labels=["c0", "c1"]
        )
        assert "c0" in text and "r1" in text

    def test_render_grid_pads_ragged(self):
        text = render_grid([[1], [2, 3]])
        assert text  # no exception and nonempty


class TestTrace:
    def make_trace(self):
        return [
            [
                TraceEvent(0, "compute", 0, 5, detail="w"),
                TraceEvent(0, "send", 5, 7, peer=1, words=2),
            ],
            [TraceEvent(1, "recv", 0, 7, peer=0, words=2)],
        ]

    def test_busy_time(self):
        t = self.make_trace()
        assert busy_time(t[0]) == 5
        assert comm_time(t[0]) == 2
        assert comm_time(t[1]) == 7

    def test_trace_table(self):
        text = trace_table(self.make_trace())
        assert "send->1(2w)" in text and "recv<-0(2w)" in text

    def test_trace_table_max_events(self):
        text = trace_table(self.make_trace(), max_events=1)
        assert "send" not in text

    def test_gantt(self):
        art = gantt(self.make_trace(), width=20)
        assert "P0" in art and "#" in art and ">" in art

    def test_gantt_empty(self):
        assert gantt([[]]) == "(empty trace)"

    def test_event_labels(self):
        e = TraceEvent(0, "compute", 0, 1, detail="gemv")
        assert e.label() == "gemv"
        assert TraceEvent(0, "delay", 0, 1).label() == "delay"


class TestPublicApi:
    def test_version(self):
        assert repro.__version__

    def test_version_is_declared_once(self):
        """The package metadata reads ``repro.__version__``; no second copy."""
        tomllib = pytest.importorskip("tomllib")
        pyproject = pathlib.Path(__file__).resolve().parent.parent / "pyproject.toml"
        meta = tomllib.loads(pyproject.read_text())
        assert "version" not in meta["project"] and "version" in meta["project"]["dynamic"]
        assert meta["tool"]["setuptools"]["dynamic"]["version"] == {"attr": "repro.__version__"}

    def test_all_importable(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_compile_and_run_jacobi(self):
        res = repro.api.compile_and_run(
            repro.jacobi_program(), nprocs=4, env={"m": 16, "maxiter": 8}
        )
        assert res.makespan > 0
        assert len(res.values[0]) == 16

    def test_compile_and_run_sor(self):
        res = repro.api.compile_and_run(
            repro.sor_program(), nprocs=4, env={"m": 16, "maxiter": 4}
        )
        assert res.makespan > 0

    def test_compile_and_run_gauss_solves(self):
        from repro.kernels import make_spd_system

        A, b, x_true = make_spd_system(16, seed=0)
        res = repro.api.compile_and_run(
            repro.gauss_program(), nprocs=4, env={"m": 16}, inputs={"A": A, "B": b}
        )
        np.testing.assert_allclose(res.value(0), x_true, atol=1e-8)

    def test_compile_and_run_matmul_uses_cannon(self):
        res = repro.api.compile_and_run(repro.matmul_program(), nprocs=4, env={"n": 12})
        assert res.value(0).shape == (12, 12)

    def test_compile_and_run_unknown_inputs_error(self):
        from repro.lang import parse_program

        heat = parse_program(
            "PROGRAM h\nPARAM m\nARRAY U(m), W(m)\n"
            "DO i = 2, m - 1\nU(i) = W(i - 1)\nEND DO\nEND\n"
        )
        with pytest.raises(repro.ReproError):
            repro.api.compile_and_run(heat, nprocs=2, env={"m": 8})

    def test_compile_and_run_custom_model(self):
        fast = repro.api.compile_and_run(
            repro.jacobi_program(),
            nprocs=4,
            env={"m": 16, "maxiter": 4},
            model=MachineModel(tf=1, tc=1),
        )
        slow = repro.api.compile_and_run(
            repro.jacobi_program(),
            nprocs=4,
            env={"m": 16, "maxiter": 4},
            model=MachineModel(tf=1, tc=100),
        )
        assert fast.makespan < slow.makespan


class TestErrorsHierarchy:
    def test_all_errors_derive_from_repro_error(self):
        from repro import errors

        for name in dir(errors):
            obj = getattr(errors, name)
            if isinstance(obj, type) and issubclass(obj, Exception) and obj.__module__ == "repro.errors":
                assert issubclass(obj, errors.ReproError) or obj is errors.ReproError

    def test_deadlock_error_message(self):
        from repro.errors import DeadlockError

        err = DeadlockError({0: "recv(source=1, tag=0)"})
        assert "P0" in str(err)
