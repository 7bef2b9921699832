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
from repro.distribution.function2d import (
    Coupling,
    Dist2D,
    cannon_a_layout,
    cannon_b_layout,
)
from repro.distribution.layout import (
    block_summary,
    layout_matrix,
    ownership_table,
    render_layout,
)
from repro.distribution.redistribution import (
    RULES,
    ChangeRule,
    RedistPlan,
    RedistTerm,
    change_rule,
    placement_change_plan,
    placement_change_terms,
    redistribution_cost,
    replication_cost,
)
from repro.distribution.runtime import (
    AllgatherOp,
    BcastOp,
    ExchangeOp,
    GatherOp,
    RedistLowering,
    RegridOp,
    ScatterOp,
    TransferOp,
    lower_placement_delta,
    redistribute,
)
from repro.distribution.schemes import ArrayPlacement, Scheme, scheme_from_directives
from repro.distribution.sections import (
    assemble,
    dim_distribution,
    grid_coords,
    grid_rank,
    groups_along,
    local_indices,
    pack_section,
    section_table,
)
from repro.distribution.sparse import SparsePlacement

__all__ = [
    "Dist1D",
    "Kind",
    "Dist2D",
    "Coupling",
    "cannon_a_layout",
    "cannon_b_layout",
    "layout_matrix",
    "render_layout",
    "ownership_table",
    "block_summary",
    "Scheme",
    "ArrayPlacement",
    "SparsePlacement",
    "scheme_from_directives",
    "RedistPlan",
    "RedistTerm",
    "RULES",
    "ChangeRule",
    "change_rule",
    "placement_change_plan",
    "placement_change_terms",
    "redistribution_cost",
    "replication_cost",
    "RedistLowering",
    "lower_placement_delta",
    "redistribute",
    "TransferOp",
    "BcastOp",
    "AllgatherOp",
    "GatherOp",
    "ScatterOp",
    "RegridOp",
    "ExchangeOp",
    "assemble",
    "local_indices",
    "pack_section",
    "section_table",
    "grid_coords",
    "grid_rank",
    "groups_along",
    "dim_distribution",
]
