"""The paper's generalized data distribution functions (§2.1).

* :class:`~repro.distribution.function.Dist1D` — 1-D distribution
  function ``f_A(i) = floor((d*i + disp)/block) [mod N]`` or replication;
* :class:`~repro.distribution.function2d.Dist2D` — 2-D distributions,
  independent per dimension or *rotated* (Cannon-style skewing);
* layout renderers reproducing Fig 1 and Tables 3-4;
* :mod:`~repro.distribution.schemes` — whole-program distribution schemes
  (the ``P_{i,j}`` objects of Algorithm 1);
* :mod:`~repro.distribution.redistribution` — cost and plan of changing
  layouts between loop nests (the ``cost(P, P')`` of Algorithm 1), and
  the one rule table (:func:`change_rule`, :data:`RULES`) both the
  planner and the runtime read;
* :mod:`~repro.distribution.sections` — which global elements each rank
  owns under a placement (the executable side of §2.1);
* :mod:`~repro.distribution.runtime` — lowering of
  :class:`~repro.distribution.redistribution.RedistPlan` terms to real
  message traffic, and the :func:`~repro.distribution.runtime.redistribute`
  runtime call.
"""

from repro.distribution.function import Dist1D, Kind
from repro.distribution.function2d import Coupling, Dist2D
from repro.distribution.redistribution import placement_change_plan
from repro.distribution.runtime import lower_placement_delta, redistribute
from repro.distribution.schemes import ArrayPlacement, Scheme
from repro.distribution.sections import pack_section

__all__ = [
    "Dist1D",
    "Kind",
    "Dist2D",
    "Coupling",
    "Scheme",
    "ArrayPlacement",
    "placement_change_plan",
    "lower_placement_delta",
    "redistribute",
    "pack_section",
]
