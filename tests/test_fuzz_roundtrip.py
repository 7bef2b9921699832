"""Property-based fuzzing: random programs round-trip through the
parser/printer, and analyses never crash on them."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dependence.analysis import find_dependences
from repro.lang import parse_program, program_to_text
from repro.lang.analysis import collect_ref_sites
from repro.machine.model import MachineModel
from repro.alignment import build_cag, greedy_alignment
from repro.errors import AlignmentError

# ---------------------------------------------------------------------------
# random-program generator
# ---------------------------------------------------------------------------

ARRAY_NAMES = ["U", "V", "W"]
MATRIX = "M0"
LOOP_VARS = ["i", "j"]


@st.composite
def random_program(draw) -> str:
    """A random (always valid) DSL program over fixed declarations."""
    lines = [
        "PROGRAM fuzz",
        "PARAM m",
        f"ARRAY {MATRIX}(m, m), " + ", ".join(f"{a}(m)" for a in ARRAY_NAMES),
    ]

    def subscript(var: str) -> str:
        off = draw(st.integers(-2, 2))
        if off > 0:
            return f"{var} + {off}"
        if off < 0:
            return f"{var} - {-off}"
        return var

    def expr(var: str, depth: int = 0) -> str:
        choice = draw(st.integers(0, 3 if depth < 2 else 1))
        if choice == 0:
            return str(draw(st.integers(0, 9)))
        if choice == 1:
            arr = draw(st.sampled_from(ARRAY_NAMES))
            return f"{arr}({subscript(var)})"
        op = draw(st.sampled_from(["+", "-", "*"]))
        return f"({expr(var, depth + 1)} {op} {expr(var, depth + 1)})"

    n_loops = draw(st.integers(1, 3))
    for k in range(n_loops):
        var = draw(st.sampled_from(LOOP_VARS))
        lo = draw(st.integers(1, 3))
        lines.append(f"DO {var} = {lo}, m")
        n_stmts = draw(st.integers(1, 3))
        for _ in range(n_stmts):
            lhs_arr = draw(st.sampled_from(ARRAY_NAMES))
            lines.append(f"  {lhs_arr}({subscript(var)}) = {expr(var)}")
        if draw(st.booleans()):
            inner = "j" if var == "i" else "i"
            lines.append(f"  DO {inner} = 1, m")
            lines.append(
                f"    {MATRIX}({subscript(var)}, {subscript(inner)}) = {expr(inner)}"
            )
            lines.append("  END DO")
        lines.append("END DO")
    lines.append("END")
    return "\n".join(lines) + "\n"


class TestFuzz:
    @settings(max_examples=60, deadline=None)
    @given(random_program())
    def test_parse_print_fixpoint(self, source):
        program = parse_program(source)
        text1 = program_to_text(program)
        text2 = program_to_text(parse_program(text1))
        assert text1 == text2

    @settings(max_examples=40, deadline=None)
    @given(random_program())
    def test_dependences_well_formed(self, source):
        program = parse_program(source)
        for dep in find_dependences(program):
            assert dep.kind in ("flow", "anti", "output")
            assert dep.distance.is_lexicographically_positive()
            assert dep.source.array == dep.sink.array == dep.array

    @settings(max_examples=40, deadline=None)
    @given(random_program())
    def test_ref_sites_consistent(self, source):
        program = parse_program(source)
        for site in collect_ref_sites(program):
            assert site.array in program.arrays
            assert site.ref.rank == program.arrays[site.array].rank

    @settings(max_examples=30, deadline=None)
    @given(random_program())
    def test_alignment_never_violates_constraint(self, source):
        program = parse_program(source)
        cag = build_cag(
            program.body, program, {"m": 16}, MachineModel(tf=1, tc=10), nprocs=4
        )
        if not cag.nodes:
            return
        try:
            alignment = greedy_alignment(cag, q=2)
        except AlignmentError:
            return  # legitimately infeasible (rank > q)
        seen = {}
        for node, dim in alignment.assignment:
            key = (node[0], dim)
            assert key not in seen, f"{node} and {seen[key]} share a dimension"
            seen[key] = node
