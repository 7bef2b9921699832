"""The hand-written tables restate nothing the rows do not say (ISSUE 18).

Table 1 lives in ``repro.costmodel.primitives.TABLE1`` and the layout-change
rules in ``repro.distribution.RULES``; the tables in the module docstrings
and in ``docs/REDISTRIBUTION.md`` are prose copies for readers.  Each is
checked line by line against the rows, so a row that changes (or a new
one) fails here until the prose follows.
"""

from __future__ import annotations

import pathlib
import re
from typing import get_args

import numpy as np
import pytest

from repro.costmodel import primitives
from repro.costmodel.primitives import TABLE1
from repro.distribution import RULES, redistribution, runtime
from repro.machine import Hypercube, MachineModel, collectives, run_spmd

DOC = pathlib.Path(__file__).parent.parent / "docs" / "REDISTRIBUTION.md"


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
