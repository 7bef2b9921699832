"""Component alignment (paper §3, after Li & Chen).

* :mod:`~repro.alignment.graph` builds the component affinity graph (CAG)
  of a program fragment (Fig 2, Fig 7);
* :mod:`~repro.alignment.weights` prices the edges with the Table 1
  primitives (the ``c1..c4`` / ``e1..e4`` expressions);
* :mod:`~repro.alignment.solver` partitions the node set into ``q`` grid
  dimensions minimizing the cross-subset weight, with the constraint that
  two dimensions of one array never share a subset.
"""

from repro.alignment.graph import build_cag
from repro.alignment.solver import (
    alignment_to_scheme,
    exact_alignment,
    greedy_alignment,
)

__all__ = ["build_cag", "exact_alignment", "greedy_alignment", "alignment_to_scheme"]
