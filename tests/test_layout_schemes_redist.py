"""Layout rendering, scheme materialization and redistribution costs."""

from __future__ import annotations

import pytest

from repro.costmodel.primitives import CommCosts
from repro.distribution import ArrayPlacement, Dist1D, Dist2D, Kind, Scheme
from repro.distribution.redistribution import (
    placement_change_terms,
    redistribution_cost,
    replication_cost,
)
from repro.distribution.layout import block_summary, layout_matrix, ownership_table, render_layout
from repro.errors import DistributionError
from repro.machine.model import MachineModel


class TestLayoutRendering:
    def test_fig1_a_blocks(self):
        d = Dist2D.block_block(16, 16, 4, 4)
        cells = block_summary(d)
        assert cells.shape == (4, 4)
        assert cells[0, 0] == "00" and cells[3, 3] == "33"

    def test_fig1_b_blocks(self):
        from repro.distribution.function2d import Coupling

        d = Dist2D(
            rows=Dist1D.block_dist(16, 4, grid_dim=1),
            cols=Dist1D.block_dist(16, 4, grid_dim=2),
            coupling=Coupling.ROTATE_DIM2,
            d1=-1,
            d2=-1,
        )
        cells = block_summary(d)
        assert list(cells[0]) == ["00", "03", "02", "01"]
        assert list(cells[1]) == ["13", "12", "11", "10"]

    def test_layout_matrix_replicated_star(self):
        d = Dist2D.row_blocks(8, 8, 2)
        labels = layout_matrix(d)
        assert labels[0, 0] == "0*"

    def test_render_contains_title(self):
        text = render_layout(Dist2D.block_block(8, 8, 2, 2), title="demo")
        assert text.startswith("demo")

    def test_ownership_table_jacobi_table3(self):
        """Table 3: row-block Jacobi layout on four processors, m=4."""
        m, n = 4, 4
        entries = [
            ("A", Dist2D.row_blocks(m, m, n)),
            ("V", Dist1D.block_dist(m, n)),
            ("B", Dist1D.block_dist(m, n)),
            ("X", Dist1D.block_dist(m, n)),
            ("Xc", Dist1D.replicated(m)),
        ]
        text = ownership_table(entries, n)
        assert "A11 A12 A13 A14" in text  # processor 0 holds row 1
        assert "(Xc1 Xc2 Xc3 Xc4)" in text  # replicated copy in parens
        assert "processor 3" in text

    def test_ownership_table_sor_table4(self):
        """Table 4: column-block SOR layout, V replicated."""
        m, n = 4, 4
        entries = [
            ("A", Dist2D.col_blocks(m, m, n)),
            ("B", Dist1D.block_dist(m, n)),
            ("X", Dist1D.block_dist(m, n)),
            ("V", Dist1D.replicated(m)),
        ]
        text = ownership_table(entries, n)
        # processor 0 holds column 1 of A
        assert "A11 A21 A31 A41" in text
        assert "(V1 V2 V3 V4)" in text


class TestSchemes:
    def test_placement_validation_duplicate_grid_dim(self):
        with pytest.raises(DistributionError):
            ArrayPlacement("A", (1, 1))

    def test_placement_kind_default(self):
        p = ArrayPlacement("A", (1, 2))
        assert p.kinds == (Kind.BLOCK, Kind.BLOCK)

    def test_placement_rest_validation(self):
        with pytest.raises(DistributionError):
            ArrayPlacement("A", (1,), rest="sometimes")

    def test_scheme_duplicate_array(self):
        with pytest.raises(DistributionError):
            Scheme.of(ArrayPlacement("A", (1,)), ArrayPlacement("A", (2,)))

    def test_scheme_lookup(self):
        s = Scheme.of(ArrayPlacement("A", (1, 2)), ArrayPlacement("X", (2,)))
        assert s.placement("X").dim_map == (2,)
        with pytest.raises(DistributionError):
            s.placement("Q")

    def test_materialize_1d_block(self):
        s = Scheme.of(ArrayPlacement("X", (1,)))
        d = s.materialize("X", (16,), (4, 1))
        assert isinstance(d, Dist1D) and d.nprocs == 4

    def test_materialize_1d_cyclic(self):
        s = Scheme.of(ArrayPlacement("X", (1,), kinds=(Kind.CYCLIC,)))
        d = s.materialize("X", (16,), (4, 1))
        assert d.kind is Kind.CYCLIC

    def test_materialize_2d(self):
        s = Scheme.of(ArrayPlacement("A", (1, 2)))
        d = s.materialize("A", (16, 16), (2, 8))
        assert isinstance(d, Dist2D)
        assert d.n1 == 2 and d.n2 == 8

    def test_materialize_replicated_dim(self):
        s = Scheme.of(ArrayPlacement("A", (1, None)))
        d = s.materialize("A", (8, 8), (4, 2))
        assert d.cols.is_replicated

    def test_materialize_rank_mismatch(self):
        s = Scheme.of(ArrayPlacement("A", (1, 2)))
        with pytest.raises(DistributionError):
            s.materialize("A", (8,), (2, 2))

    def test_describe_mentions_everything(self):
        s = Scheme.of(ArrayPlacement("A", (1, 2)), name="demo")
        assert "demo" in s.describe() and "grid1" in s.describe()


class TestRedistribution:
    @pytest.fixture
    def costs(self):
        return CommCosts(MachineModel(tf=1, tc=10))

    def test_identical_placements_free(self, costs):
        s = Scheme.of(ArrayPlacement("X", (1,)))
        plan = redistribution_cost(s, s, {"X": 256}, (4, 1), costs)
        assert plan.total == 0 and plan.terms == ()

    def test_paper_ctime1_is_zero(self, costs):
        """§4: changing X from grid dim 2 to dim 1 at grid (N, 1) is free
        because nothing was actually split along dim 2."""
        src = Scheme.of(ArrayPlacement("X", (2,)))
        dst = Scheme.of(ArrayPlacement("X", (1,)))
        assert redistribution_cost(src, dst, {"X": 256}, (16, 1), costs).total == 0

    def test_paper_ctime2_loop_carried(self, costs):
        """§4: X written block-wise on dim 1 then needed replicated:
        ManyToManyMulticast(m/N, N) + OneToManyMulticast(m, N2)."""
        m, n = 256, 16
        src = ArrayPlacement("X", (1,))
        dst = ArrayPlacement("X", (2,), rest="replicated")
        terms = placement_change_terms(src, dst, m, (n, 1), costs)
        total = sum(t.cost for t in terms)
        # ManyToMany(m/N, N) = (N-1) * m/N * tc; OneToMany over N2=1 = 0.
        assert total == (n - 1) * (m / n) * 10

    def test_cross_dim_fixed_rest_aligned(self, costs):
        """dim 1 -> dim 2 with equal extents, same kind, fixed rest: a pure
        rank relabeling — section k moves from coordinate k of dim 1 to
        coordinate k of dim 2 as N-1 parallel pairwise Transfers."""
        src = ArrayPlacement("V", (1,))
        dst = ArrayPlacement("V", (2,))
        terms = placement_change_terms(src, dst, 64, (4, 4), costs)
        assert [t.primitive for t in terms] == ["Transfer"]
        assert terms[0].cost == (64 / 4) * 10  # one transfer time: parallel pairs
        assert terms[0].count == 3  # section 0 is already in place
        assert terms[0].volume == 3 * (64 / 4)

    def test_cross_dim_fixed_rest_unequal_extents(self, costs):
        """dim 1 -> dim 2 with different extents cannot be relabeled:
        N1 x OneToMany(D/N1, N2)."""
        src = ArrayPlacement("V", (1,))
        dst = ArrayPlacement("V", (2,))
        terms = placement_change_terms(src, dst, 64, (4, 8), costs)
        total = sum(t.cost for t in terms)
        assert [t.primitive for t in terms] == ["OneToManyMulticast"]
        assert total == 4 * (64 / 4) * 3 * 10  # 4 x OneToMany(16, 8): log2(8)=3

    def test_cross_dim_kind_change_not_aligned(self, costs):
        """dim 1 -> dim 2 that also flips block->cyclic is a multicast."""
        src = ArrayPlacement("V", (1,))
        dst = ArrayPlacement("V", (2,), kinds=(Kind.CYCLIC,))
        terms = placement_change_terms(src, dst, 64, (4, 4), costs)
        assert [t.primitive for t in terms] == ["OneToManyMulticast"]
        assert terms[0].count == 4

    def test_kind_change_affine_transform(self, costs):
        src = ArrayPlacement("X", (1,), kinds=(Kind.BLOCK,))
        dst = ArrayPlacement("X", (1,), kinds=(Kind.CYCLIC,))
        terms = placement_change_terms(src, dst, 64, (4, 1), costs)
        assert len(terms) == 1 and terms[0].primitive == "AffineTransform"

    def test_departition_to_pinned_home_is_gather(self, costs):
        """Collapsing a split while the destination pins its copy (rest
        fixed) funnels everything to coordinate 0: a Gather, at the same
        (N-1) m tc cost the many-to-many rule would charge."""
        src = ArrayPlacement("X", (1,))
        dst = ArrayPlacement("X", (None,))
        terms = placement_change_terms(src, dst, 64, (4, 1), costs)
        assert [t.primitive for t in terms] == ["Gather"]
        assert terms[0].cost == 3 * (64 / 4) * 10

    def test_departition_to_replicated_dim(self, costs):
        src = ArrayPlacement("X", (1,))
        dst = ArrayPlacement("X", (None,), rest="replicated")
        terms = placement_change_terms(src, dst, 64, (4, 1), costs)
        assert terms[0].primitive == "ManyToManyMulticast"

    def test_split_from_pinned_home_is_scatter(self, costs):
        """Splitting along a dimension the source pinned (rest fixed) must
        deal the data out from coordinate 0: a Scatter."""
        src = ArrayPlacement("X", (None,))
        dst = ArrayPlacement("X", (1,))
        terms = placement_change_terms(src, dst, 64, (4, 4), costs)
        assert [t.primitive for t in terms] == ["Scatter"]
        assert terms[0].cost == 3 * (64 / 4) * 10

    def test_split_from_replicated_is_free(self, costs):
        src = ArrayPlacement("X", (None,), rest="replicated")
        dst = ArrayPlacement("X", (1,))
        assert placement_change_terms(src, dst, 64, (4, 4), costs) == []

    def test_replication_cost_of_partitioned(self, costs):
        plan = replication_cost(ArrayPlacement("X", (1,)), 64, (4, 4), costs)
        prims = {t.primitive for t in plan.terms}
        assert "ManyToManyMulticast" in prims
        assert plan.total > 0

    def test_rank_mismatch_rejected(self, costs):
        with pytest.raises(DistributionError):
            placement_change_terms(
                ArrayPlacement("X", (1,)), ArrayPlacement("X", (1, 2)), 8, (2, 2), costs
            )

    def test_array_mismatch_rejected(self, costs):
        with pytest.raises(DistributionError):
            placement_change_terms(
                ArrayPlacement("X", (1,)), ArrayPlacement("Y", (1,)), 8, (2, 2), costs
            )

    def test_missing_size(self, costs):
        src = Scheme.of(ArrayPlacement("X", (1,)))
        dst = Scheme.of(ArrayPlacement("X", (2,)))
        with pytest.raises(DistributionError):
            redistribution_cost(src, dst, {}, (4, 4), costs)

    def test_missing_size_with_explicit_arrays(self, costs):
        src = Scheme.of(ArrayPlacement("X", (1,)))
        dst = Scheme.of(ArrayPlacement("X", (2,)))
        with pytest.raises(DistributionError, match="no size known"):
            redistribution_cost(src, dst, {}, (4, 4), costs, arrays=("X",))

    def test_extent_one_grid_dim_costs_nothing(self, costs):
        """Splitting along a grid dimension of extent 1 never moved data,
        so leaving it (even into replication) must produce no terms."""
        src = ArrayPlacement("X", (2,))
        dst = ArrayPlacement("X", (1,), rest="replicated")
        terms = placement_change_terms(src, dst, 64, (4, 1), costs)
        assert terms == []

    def test_extent_one_both_ways_is_free(self, costs):
        src = Scheme.of(ArrayPlacement("X", (2,)))
        dst = Scheme.of(ArrayPlacement("X", (2,), kinds=(Kind.CYCLIC,)))
        plan = redistribution_cost(src, dst, {"X": 64}, (4, 1), costs)
        assert plan.total == 0 and plan.terms == ()

    def test_src_only_array_rejected(self, costs):
        """An array that vanishes from the destination scheme must not
        silently make the move look free."""
        src = Scheme.of(ArrayPlacement("X", (1,)), ArrayPlacement("Y", (1,)))
        dst = Scheme.of(ArrayPlacement("X", (2,)))
        with pytest.raises(DistributionError, match="appear in the source scheme"):
            redistribution_cost(src, dst, {"X": 64, "Y": 64}, (4, 4), costs)

    def test_src_only_array_allowed_with_explicit_scope(self, costs):
        src = Scheme.of(ArrayPlacement("X", (1,)), ArrayPlacement("Y", (1,)))
        dst = Scheme.of(ArrayPlacement("X", (2,)))
        plan = redistribution_cost(src, dst, {"X": 64}, (4, 4), costs, arrays=("X",))
        assert plan.total > 0
        assert all(t.array == "X" for t in plan.terms)

    def test_redist_plan_totals_its_terms(self, costs):
        src = Scheme.of(ArrayPlacement("X", (1,)))
        dst = Scheme.of(ArrayPlacement("X", (2,), rest="replicated"))
        plan = redistribution_cost(src, dst, {"X": 256}, (16, 1), costs)
        assert plan.terms and plan.total == sum(t.cost for t in plan.terms)
        assert plan.grid == (16, 1)
        assert plan.analytic_words == sum(t.volume for t in plan.terms)
        assert "total" in plan.describe()

    def test_unchanged_array_skipped_before_size_lookup(self, costs):
        """An array whose placement is identical in both schemes is
        skipped entirely — its size need not even be known."""
        src = Scheme.of(ArrayPlacement("X", (1,)), ArrayPlacement("Y", (1,)))
        dst = Scheme.of(ArrayPlacement("X", (1,)), ArrayPlacement("Y", (2,)))
        plan = redistribution_cost(src, dst, {"Y": 64}, (4, 4), costs)
        assert plan.total > 0
        assert all(t.array == "Y" for t in plan.terms)
