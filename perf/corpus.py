"""Seeded inputs.  Everything a workload feeds the program derives from
the one ``--seed``; nothing here imports ``repro``.

What the seed decides: the order of the corpus, each synthetic chain's
identifiers, problem size and operators, every alpha-twin's identifiers,
and every matrix, vector and sparsity pattern.  What it does *not*
decide is the amount of work: the chain lengths are a fixed multiset,
every second loop of a chain reads two operands, and the kernels' sizes
are fixed.  Compile time grows with the cube of the chain length, the
size of a cached plan with the shape of its affinity graphs, and host
time with the event count — a seed that changed those would move the
timings by more than their bounds (seeded two-operand positions alone
spread the warm pass by 6 %).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

NPROCS = 16

# The paper's four programs (sections 3, 5, 6 and 2.1), frozen here so the
# benchmark's inputs do not move when the library's canned copies do.
JACOBI = """\
PROGRAM jacobi
PARAM m, maxiter
ARRAY A(m, m), V(m), B(m), X(m)
DO k = 1, maxiter
  DO i = 1, m
    V(i) = 0.0
    DO j = 1, m
      V(i) = V(i) + A(i, j) * X(j)
    END DO
  END DO
  DO i = 1, m
    X(i) = X(i) + (B(i) - V(i)) / A(i, i)
  END DO
END DO
END
"""

SOR = """\
PROGRAM sor
PARAM m, maxiter
SCALAR omega
ARRAY A(m, m), V(m), B(m), X(m)
DO k = 1, maxiter
  DO i = 1, m
    V(i) = 0.0
    DO j = 1, m
      V(i) = V(i) + A(i, j) * X(j)
    END DO
    X(i) = X(i) + omega * (B(i) - V(i)) / A(i, i)
  END DO
END DO
END
"""

GAUSS = """\
PROGRAM gauss
PARAM m
ARRAY A(m, m), L(m, m), B(m), V(m), X(m)
DO k = 1, m
  DO i = k + 1, m
    L(i, k) = A(i, k) / A(k, k)
    B(i) = B(i) - L(i, k) * B(k)
    DO j = k + 1, m
      A(i, j) = A(i, j) - L(i, k) * A(k, j)
    END DO
  END DO
END DO
DO i = m, 1, -1
  V(i) = 0.0
END DO
DO j = m, 1, -1
  X(j) = (B(j) - V(j)) / A(j, j)
  DO i = j - 1, 1, -1
    V(i) = V(i) + A(i, j) * X(j)
  END DO
END DO
END
"""

MATMUL = """\
PROGRAM matmul
PARAM n
ARRAY A(n, n), B(n, n), C(n, n)
DO i = 1, n
  DO j = 1, n
    A(i, j) = 0.0
    DO k = 1, n
      A(i, j) = A(i, j) + B(i, k) * C(k, j)
    END DO
  END DO
END DO
END
"""

#: label -> (source, compile env, identifiers an alpha-twin renames)
PAPER = {
    "jacobi": (JACOBI, {"m": 256, "maxiter": 1}, "jacobi m maxiter A V B X k i j"),
    "sor": (SOR, {"m": 128, "maxiter": 1}, "sor m maxiter omega A V B X k i j"),
    "gauss": (GAUSS, {"m": 96}, "gauss m A L B V X k i j"),
    "matmul": (MATMUL, {"n": 48}, "matmul n A B C i j k"),
}

#: Loop counts of the eight synthetic chains.  Fixed, see module docstring.
CHAIN_LENGTHS = (2, 3, 4, 5, 6, 7, 8, 8)
CHAIN_SIZES = (128, 256, 512)


@dataclass(frozen=True)
class Entry:
    """One corpus program in its two DSL spellings."""

    label: str
    source: str
    env: dict
    twin: str
    twin_env: dict
    #: Closed-form Algorithm 1 cost (chains only): the loops are
    #: elementwise and perfectly aligned, so the plan is pure compute,
    #: ``flops * m / N`` — a reference that is not the compiler.
    ref_cost: float | None = None


def _names(rng: np.random.Generator, count: int, taken: set[str]) -> list[str]:
    """*count* fresh identifiers; the digit keeps them clear of the DSL's
    (case-insensitive) keywords."""
    out = []
    while len(out) < count:
        letters = "".join(chr(ord("a") + int(c)) for c in rng.integers(0, 26, size=3))
        name = f"{letters.capitalize()}{int(rng.integers(0, 10))}"
        if name not in taken:
            taken.add(name)
            out.append(name)
    return out


def _rename(text: str, mapping: dict[str, str]) -> str:
    pattern = re.compile(r"\b(" + "|".join(map(re.escape, mapping)) + r")\b")
    return pattern.sub(lambda m: mapping[m.group(1)], text)


def _twin(rng, source: str, env: dict, idents: str) -> tuple[str, dict]:
    old = idents.split()
    mapping = dict(zip(old, _names(rng, len(old), set(old))))
    return _rename(source, mapping), {mapping[k]: v for k, v in env.items()}


def _chain(rng, length: int, index: int) -> Entry:
    m = int(rng.choice(CHAIN_SIZES))
    prog, pm, pt, kv, iv, *arrays = _names(rng, 5 + length + 1, set())
    decls = ", ".join(f"{a}({pm})" for a in arrays)
    lines = [f"PROGRAM {prog}", f"PARAM {pm}, {pt}", f"ARRAY {decls}", f"DO {kv} = 1, {pt}"]
    flops = 0
    for idx in range(length):
        dst, src = arrays[idx + 1], arrays[idx]
        rhs = f"{dst}({iv}) {rng.choice(['+', '-', '*'])} {src}({iv})"
        flops += 1
        if idx % 2:  # every second loop also reads the vector before
            rhs += f" {rng.choice(['+', '-'])} {arrays[idx - 1]}({iv})"
            flops += 1
        lines += [f"  DO {iv} = 1, {pm}", f"    {dst}({iv}) = {rhs}", "  END DO"]
    lines += ["END DO", "END"]
    source = "\n".join(lines) + "\n"
    env = {pm: m, pt: 1}
    idents = " ".join([prog, pm, pt, kv, iv, *arrays])
    twin, twin_env = _twin(rng, source, env, idents)
    return Entry(f"chain{index}-s{length}", source, env, twin, twin_env, flops * m / NPROCS)


def build_corpus(seed: int) -> list[Entry]:
    """Twelve programs: the paper's four plus eight seeded loop chains."""
    rng = np.random.default_rng([seed, 1])
    entries = []
    for label, (source, env, idents) in PAPER.items():
        twin, twin_env = _twin(rng, source, env, idents)
        entries.append(Entry(label, source, dict(env), twin, twin_env))
    lengths = rng.permutation(CHAIN_LENGTHS)
    entries += [_chain(rng, int(s), i) for i, s in enumerate(lengths)]
    return [entries[i] for i in rng.permutation(len(entries))]


def spd_system(seed: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """A dense, strictly diagonally dominant SPD system ``A x = b``."""
    rng = np.random.default_rng([seed, 2, m])
    half = rng.random((m, m))
    A = (half + half.T) / 2 + m * np.eye(m)
    return A, A @ rng.uniform(-1.0, 1.0, size=m)


def matrix_pair(seed: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng([seed, 3, n])
    return rng.random((n, n)), rng.random((n, n))


def sparse_spd_dense(seed: int, n: int, density: float) -> np.ndarray:
    """Dense image of a random sparse SPD matrix (symmetric pattern,
    dominant diagonal); the workload converts it to CSR."""
    rng = np.random.default_rng([seed, 4, n])
    mask = np.triu(rng.random((n, n)) < density, k=1)
    upper = np.where(mask, rng.uniform(-1.0, 1.0, size=(n, n)), 0.0)
    S = upper + upper.T
    S[np.diag_indices(n)] = np.abs(S).sum(axis=1) + 1.0
    return S


def vector(seed: int, n: int, stream: int) -> np.ndarray:
    return np.random.default_rng([seed, 5, n, stream]).standard_normal(n)
