"""The hand-written tables restate nothing the rows do not say (ISSUE 18).

Table 1 lives in ``repro.costmodel.primitives.TABLE1`` and the layout-change
rules in ``repro.distribution.redistribution.RULES``; the tables in the
module docstrings and in ``docs/REDISTRIBUTION.md`` are prose copies for
readers.  Each is checked line by line against the rows, so a row that
changes (or a new one) fails here until the prose follows.

The ``report`` CLI's tables (ISSUE 23) go one step further: the usage
block of ``repro.tools.report``'s docstring and the mode / named-run
tables of ``docs/OBSERVABILITY.md`` are *generated* from
``report.MODES`` and ``runs.RUNS`` and must appear verbatim;
``PYTHONPATH=src python -m tests.test_doc_tables`` prints them.
"""

from __future__ import annotations

import pathlib
import re
from typing import get_args

import numpy as np
import pytest

from repro.costmodel import primitives
from repro.costmodel.primitives import TABLE1
from repro.distribution.redistribution import RULES
from repro.distribution import redistribution, runtime
from repro.machine import Hypercube, MachineModel, collectives, run_spmd
from repro.tools import report
from repro.tools.runs import RUNS

DOC = pathlib.Path(__file__).parent.parent / "docs" / "REDISTRIBUTION.md"
OBS_DOC = DOC.with_name("OBSERVABILITY.md")


def _line_with(text: str, start: str) -> str:
    lines = [ln for ln in text.splitlines() if ln.lstrip("| ").startswith(start)]
    assert len(lines) == 1, f"expected one table line starting {start!r}, got {lines}"
    return lines[0]


@pytest.mark.parametrize("row", TABLE1, ids=lambda r: r.name)
def test_primitive_tables_follow_the_rows(row):
    own = _line_with(primitives.__doc__, f"{row.name}(")
    assert row.shape in own
    realized = _line_with(collectives.__doc__, f"{row.name}(")
    assert row.shape in realized
    assert (f":func:`{row.collective}`" in realized) or (f"``{row.collective}``" in realized)


@pytest.mark.parametrize("row", TABLE1, ids=lambda r: r.name)
def test_collective_moves_the_rows_volume(row):
    """``collective`` and ``volume`` describe the same thing: running the
    named function puts exactly the row's words on the wire."""
    m, topo = 6, Hypercube(3)
    group, payload = tuple(range(topo.size)), np.zeros(m)
    if row is primitives.TRANSFER:
        def prog(p):
            if p.rank == 0:
                p.send(1, payload)
            elif p.rank == 1:
                yield from p.recv(0)
    else:
        fn = getattr(collectives, row.collective)
        args = {
            "shift": (payload, group),
            "bcast": (payload, 0, group),
            "reduce": (payload, 0, group),
            "affine_transform": (payload, group, lambda i: i + 1),
            "scatter": ([payload] * topo.size, 0, group),
            "gather": (payload, 0, group),
            "allgather": (payload, group),
        }[row.collective]

        def prog(p):
            return fn(p, *args)
    res = run_spmd(prog, topo, MachineModel(tf=1, tc=1))
    assert res.message_words == row.volume(m, topo.size)


@pytest.mark.parametrize(
    "op", [cls for cls in get_args(runtime.RedistOp) if cls is not runtime.ExchangeOp],
    ids=lambda cls: cls.__name__,
)
def test_runtime_table_names_each_op_under_its_primitive(op):
    assert f":class:`{op.__name__}`" in _line_with(runtime.__doc__, op.kind)
    assert op.kind in primitives.PRIMITIVES


def _rule_blocks(text: str, names: list[str]) -> dict[str, str]:
    """Split a docstring's (one) simple table into the lines of each rule."""
    body = re.split(r"^=+  =+$", text, flags=re.MULTILINE)[2]
    blocks: dict[str, list[str]] = {}
    current = None
    for line in body.splitlines():
        first = line.split(" ", 1)[0]
        if first in names:
            current = first
        if current:
            blocks.setdefault(current, []).append(line)
    return {name: "\n".join(lines) for name, lines in blocks.items()}


def test_rule_tables_list_every_rule_in_order():
    names = [rule.name for rule in RULES]
    assert len(set(names)) == len(names)
    assert list(_rule_blocks(redistribution.__doc__, names)) == names
    section = DOC.read_text().split("## Lowering rules")[1].split("\n## ")[0]
    assert re.findall(r"^\| `([a-z-]+)` \|", section, flags=re.MULTILINE) == names


@pytest.mark.parametrize("rule", RULES, ids=lambda r: r.name)
def test_rule_tables_follow_the_rows(rule):
    priced = {term[0].name for term in rule.price}
    others = set(primitives.PRIMITIVES) - priced
    block = _rule_blocks(redistribution.__doc__, [r.name for r in RULES])[rule.name]
    assert all(name in block for name in priced), block
    assert ("not literal" in block) == (not rule.literal)

    cells = [c.strip() for c in _line_with(DOC.read_text(), f"`{rule.name}` |").split("|")]
    _, _name, _delta, analytic, executable, literal, _ = cells
    assert all(name in analytic for name in priced)
    assert not any(name in analytic for name in others)
    ops = set(re.findall(r"`(\w+Op)`", executable))
    assert ops == ({rule.lower} if rule.lower else set())
    assert literal == ("yes" if rule.literal else "no")


# -- the report CLI: generated from MODES and RUNS (ISSUE 23) -----------------
def _invocation(mode, targets: bool) -> str:
    words = ["python -m repro.tools.report"]
    if mode.flag is None:
        return f"{words[0]} [outdir]"
    words.append(mode.flag)
    if targets and len(mode.metavar) == 1:
        words.append("{" + ",".join(mode.targets) + "}")
    else:
        words.extend(mode.metavar)
    return " ".join(words + ["[--out DIR]"] * mode.outdir)


def report_usage() -> str:
    """The usage block: one indented invocation line per mode."""
    return "".join(f"    {_invocation(mode, targets=True)}\n" for mode in report.MODES)


def report_mode_table() -> str:
    lines = ["| invocation | targets | what it does |", "|---|---|---|"]
    for mode in report.MODES:
        invocation = _invocation(mode, targets=False).removeprefix("python -m repro.tools.")
        targets = ", ".join(f"`{t}`" for t in mode.targets or ()) or "—"
        lines.append(f"| `{invocation}` | {targets} | {mode.help} |")
    return "\n".join(lines) + "\n"


def report_run_table() -> str:
    used: dict[str, list[str]] = {name: [] for name in RUNS}
    for mode in report.MODES:
        for target, run in (mode.targets or {}).items():
            used[run.name].append(f"`{mode.flag} {target}`")
    for kernel, (blocking, overlapped, _) in report.OVERLAP_PAIRS.items():
        for name in (blocking, overlapped):
            used[name].append(f"`--overlap` ({kernel})")
    lines = ["| run | kernel | machine | size | faults | CLI target of |",
             "|---|---|---|---|---|---|"]
    for run in RUNS.values():
        model = run.model
        lines.append(
            f"| `{run.name}` | `{run.fn.__name__}` | `{run.topology}`, tf={model.tf:g} "
            f"tc={model.tc:g} alpha={model.alpha:g} | {run.m} | "
            f"{'seeded plan' if run.faults else '—'} | {', '.join(used[run.name]) or '—'} |"
        )
    return "\n".join(lines) + "\n"


def test_report_docstring_usage_block_is_the_mode_table():
    assert report_usage() in report.__doc__
    # ...and it is the whole block: no invocation line the table does not have
    listed = [ln for ln in report.__doc__.splitlines() if ln.startswith("    python -m")]
    assert len(listed) == len(report.MODES)


@pytest.mark.parametrize("table", [report_mode_table, report_run_table], ids=lambda f: f.__name__)
def test_observability_doc_carries_the_generated_report_tables(table):
    assert table() in OBS_DOC.read_text(), (
        "regenerate with: PYTHONPATH=src python -m tests.test_doc_tables"
    )


def test_every_mode_target_is_a_registered_run():
    for mode in report.MODES:
        for target, run in (mode.targets or {}).items():
            assert RUNS[run.name] is run, (mode.flag, target)


if __name__ == "__main__":
    print(report_usage(), report_mode_table(), report_run_table(), sep="\n")
