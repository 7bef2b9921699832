"""Byte identity of the canonical text across the serializer's move (ISSUE 24).

The body serializer (``_Namer`` … ``_stmt``) moved from
``repro.service.normalize`` to ``repro.lang.canonical``.  Every cache key
is a hash of ``canonicalize(program).text``, so the text may not move by a
byte.  ``tests/goldens/canonical_text.json`` was recorded from a clone of
the parent commit: the wall-clock benchmark's 12-program corpus (seed 0;
the paper's four plus eight seeded chains, ``perf/corpus.py``) and the
library's own four listings.

Regenerate (only with an ``IR_SCHEMA`` bump)::

    PYTHONPATH=src python -m tests.test_canonical_text_golden
"""

from __future__ import annotations

import importlib.util
import json
import pathlib
import sys

from repro.lang import parse_program
from repro.lang.programs import GAUSS_SOURCE, JACOBI_SOURCE, MATMUL_SOURCE, SOR_SOURCE
from repro.service import canonicalize

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN_PATH = ROOT / "tests" / "goldens" / "canonical_text.json"


def perf_corpus():
    """The wall-clock benchmark's ``perf/corpus.py``, loaded without ``perf/`` on the path."""
    spec = importlib.util.spec_from_file_location("_perf_corpus", ROOT / "perf" / "corpus.py")
    corpus = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # dataclasses look it up
    spec.loader.exec_module(corpus)
    return corpus


def _sources() -> dict[str, str]:
    sources = {f"perf/{e.label}": e.source for e in perf_corpus().build_corpus(0)}
    sources.update(
        {
            "lang/jacobi": JACOBI_SOURCE,
            "lang/sor": SOR_SOURCE,
            "lang/gauss": GAUSS_SOURCE,
            "lang/matmul": MATMUL_SOURCE,
        }
    )
    return sources


def _texts() -> dict[str, str]:
    return {label: canonicalize(parse_program(src)).text for label, src in _sources().items()}


def test_canonical_text_is_byte_identical_to_the_parent():
    golden = json.loads(GOLDEN_PATH.read_text())
    got = _texts()
    assert len(got) == 16 and sorted(got) == sorted(golden)
    assert {k: v for k, v in got.items() if v != golden[k]} == {}
    # the benchmark's exact probe over the same corpus
    assert sum(len(t) for k, t in got.items() if k.startswith("perf/")) == 10236


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(_texts(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
