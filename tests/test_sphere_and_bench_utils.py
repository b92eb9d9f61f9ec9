"""Sphere primitives and the benchmark-harness utilities."""

import numpy as np
import pytest

from repro.bench import format_series, format_table
from repro.bench.workloads import build_gravity_workload, build_sph_workloads
from repro.geometry import Sphere


class TestSphere:
    def test_contains(self):
        s = Sphere([0, 0, 0], 1.0)
        assert s.contains([0.5, 0.5, 0.5])
        assert s.contains([1.0, 0, 0])  # boundary closed
        assert not s.contains([1.01, 0, 0])

    def test_contains_points_vectorised(self):
        s = Sphere([1, 0, 0], 0.5)
        pts = np.array([[1.0, 0, 0], [1.4, 0, 0], [2.0, 0, 0]])
        assert s.contains_points(pts).tolist() == [True, True, False]

    def test_intersects_box(self):
        s = Sphere([2.0, 0.5, 0.5], 1.0)
        assert s.intersects_box([0, 0, 0], [1, 1, 1])
        assert not Sphere([3.0, 0.5, 0.5], 1.0).intersects_box([0, 0, 0], [1, 1, 1])

    def test_intersects_sphere(self):
        a = Sphere([0, 0, 0], 1.0)
        assert a.intersects_sphere(Sphere([1.9, 0, 0], 1.0))
        assert not a.intersects_sphere(Sphere([2.1, 0, 0], 1.0))

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            Sphere([0, 0, 0], -1.0)

    def test_radius_sq(self):
        assert Sphere([0, 0, 0], 3.0).radius_sq == 9.0


class TestTableFormatting:
    def test_format_table_alignment(self):
        out = format_table(["a", "bbb"], [[1, 2.5], [10, 0.0001]])
        lines = out.splitlines()
        assert len(lines) == 4
        assert "a" in lines[0] and "bbb" in lines[0]
        assert "-+-" in lines[1]
        # all rows same width
        assert len(set(len(l) for l in lines)) == 1

    def test_format_table_title_and_ints(self):
        out = format_table(["n"], [[1234567]], title="T")
        assert out.startswith("T\n")
        assert "1,234,567" in out

    def test_format_series(self):
        out = format_series("x", [1, 2], {"y": [0.1, 0.2], "z": [3, 4]})
        assert "x" in out and "y" in out and "z" in out
        assert out.count("\n") == 3

    def test_empty_rows(self):
        out = format_table(["only", "headers"], [])
        assert "only" in out


class TestWorkloadBuilders:
    def test_gravity_workload_memoised(self):
        a = build_gravity_workload(distribution="uniform", n=1500, n_partitions=8,
                                   n_subtrees=8, seed=99)
        b = build_gravity_workload(distribution="uniform", n=1500, n_partitions=8,
                                   n_subtrees=8, seed=99)
        assert a is b  # lru_cache hit
        assert a.workload.total_work > 0
        assert len(a.workload.buckets) == a.tree.n_leaves

    def test_sph_workloads_consistent(self):
        knn_gw, gadget_gw, rounds = build_sph_workloads(n=1200, k=12, n_partitions=8)
        assert rounds >= 1
        # gadget workload's total work was rescaled to the measured rounds
        from repro.runtime import CostModel

        cm = CostModel()
        measured = (
            gadget_gw.stats.opens * cm.c_open
            + gadget_gw.stats.pn_interactions * cm.c_pn
            + gadget_gw.stats.pp_interactions * cm.c_pp
        )
        assert gadget_gw.workload.total_work == pytest.approx(measured, rel=1e-6)
        assert gadget_gw.workload.total_work > knn_gw.workload.total_work


class TestPaperReference:
    """Sanity checks on the recorded paper numbers used by benches."""

    def test_table2_ratio(self):
        from repro.bench import paper_reference as pr

        assert pr.TABLE2_RUNTIME_RATIO == pytest.approx(9.2 / 16)
        assert set(pr.TABLE2) == {1, 2, 4, 8, 16}
        for cpu, (pt, ch) in pr.TABLE2.items():
            assert len(pt) == len(ch) == 8
            assert pt[0] < ch[0]  # ParaTreeT faster at every CPU count

    def test_fig_constants(self):
        from repro.bench import paper_reference as pr

        assert pr.FIG3_XWRITE_DEGRADES_CORES < pr.FIG3_SEQUENTIAL_DEGRADES_CORES
        assert pr.FIG10_SPEEDUP_RANGE == (2.0, 3.0)
        assert pr.FIG11_SPEEDUP == 10.0
        assert pr.TABLE3_TOTAL_GRAVITY_LOC == 135
        assert pr.FIG12_DOMINANT_RESONANCE_A == pytest.approx(3.27)

    def test_table1_matches_machines(self):
        from repro.bench import paper_reference as pr
        from repro.runtime import MACHINES

        for name, cores, cpu, clock, comm in pr.TABLE1:
            m = MACHINES[name]
            assert (m.cores_per_node, m.cpu_type, m.clock_ghz, m.comm_layer) == (
                cores, cpu, clock, comm
            )
