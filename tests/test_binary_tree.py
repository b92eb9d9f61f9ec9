"""Equivalence suite for the level-synchronous k-d / longest-dimension builder.

The oracle is the node-at-a-time builder the product had before
(``tests/harness/binary_reference.py``), in two modes:

* *verbatim* — ``argpartition`` at every cut.  Its count-driven arrays
  (``parent, first_child, n_children, pstart, pend, level, key``) must equal
  the product's in bytes on **any** input.  So must its boxes, unless a cut
  falls between particles *tied* on the split coordinate that differ on
  another axis: which of those lands left was numpy's introselect's choice,
  and the children's later split planes inherit it.
* *canonical* — the same loop with the one ``argpartition`` swapped for a
  sort by ``(coordinate, input index)``, the order the product states.  It
  must equal the product in every array **and** in the particle
  permutation, ties or not.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.particles import ParticleSet, clustered_clumps
from repro.trees import TreeBuildConfig, build_tree, check_tree_invariants
from tests.harness.binary_reference import reference_binary_tree

COMMON = dict(deadline=None, suppress_health_check=[HealthCheck.too_slow])

COUNT_ARRAYS = ("parent", "first_child", "n_children", "pstart", "pend", "level", "key")
BOX_ARRAYS = ("box_lo", "box_hi")
BINARY = ("kd", "longest")

#: input families; the first five never tie two *different* points on a
#: coordinate (whole points may repeat), the last two do
TIE_FREE = ("uniform", "clumped", "collinear", "duplicates", "repeated-points")
TIED = ("lattice", "axis-line")


def make_positions(kind: str, n: int, seed: int, scale: float) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if kind == "uniform":
        pos = rng.random((n, 3)) - 0.5
    elif kind == "clumped":
        centres = rng.random((4, 3))
        pos = centres[rng.integers(0, 4, n)] + 1e-3 * rng.standard_normal((n, 3))
    elif kind == "collinear":
        pos = np.outer(rng.random(n), [1.0, -2.0, 0.5]) + [0.1, 0.2, 0.3]
    elif kind == "duplicates":
        pos = np.tile(rng.random((1, 3)), (n, 1))
    elif kind == "repeated-points":
        pos = rng.random((max(n // 5, 1), 3))[rng.integers(0, max(n // 5, 1), n)]
    elif kind == "lattice":
        pos = rng.integers(0, 5, (n, 3)).astype(np.float64)
    elif kind == "axis-line":
        pos = np.zeros((n, 3))
        pos[:, 1] = rng.integers(0, max(n // 3, 1), n)
    else:  # pragma: no cover
        raise ValueError(kind)
    return pos * scale


def particles_from(pos: np.ndarray) -> ParticleSet:
    return ParticleSet(position=np.asarray(pos, dtype=np.float64), mass=np.ones(len(pos)))


def same_bytes(a, b, names):
    for name in names:
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype, name
        assert x.tobytes() == y.tobytes(), f"{name} differs"


def leaf_sets(tree):
    return {
        int(tree.key[i]): frozenset(tree.particles.orig_index[tree.pstart[i]:tree.pend[i]].tolist())
        for i in tree.leaf_indices
    }


def check_against_oracle(pos, tree_type, tie_free, **cfg):
    config = TreeBuildConfig(tree_type=tree_type, **cfg)
    particles = particles_from(pos)
    tree = build_tree(particles.copy(), config)
    verbatim = reference_binary_tree(particles.copy(), config)
    canonical = reference_binary_tree(particles.copy(), config, canonical=True)

    check_tree_invariants(tree)
    same_bytes(tree, verbatim, COUNT_ARRAYS)
    same_bytes(tree, canonical, COUNT_ARRAYS + BOX_ARRAYS)
    assert np.array_equal(tree.particles.orig_index, canonical.particles.orig_index)
    assert tree.particles.position.tobytes() == canonical.particles.position.tobytes()
    if tie_free:
        same_bytes(tree, verbatim, BOX_ARRAYS)
        if len(np.unique(pos, axis=0)) == len(pos):
            assert leaf_sets(tree) == leaf_sets(verbatim)
    return tree


inputs = st.tuples(
    st.sampled_from(TIE_FREE + TIED),
    st.integers(0, 2**31 - 1),
    st.sampled_from([1e-9, 1.0, 1e12]),
)


def property_suite(max_n: int, examples: int):
    """The hypothesis properties, at tier-1 width or at the slow job's."""

    class Suite:
        @given(inputs, st.integers(1, max_n), st.integers(1, 64), st.sampled_from(BINARY),
               st.booleans())
        @settings(max_examples=examples, **COMMON)
        def test_equals_oracle(self, spec, n, bucket, tree_type, tight):
            kind, seed, scale = spec
            check_against_oracle(make_positions(kind, n, seed, scale), tree_type,
                                 kind in TIE_FREE, bucket_size=bucket, tight_boxes=tight)

        @given(inputs, st.integers(2, max_n), st.integers(1, 6), st.sampled_from(BINARY))
        @settings(max_examples=examples // 2, **COMMON)
        def test_depth_cap(self, spec, n, depth, tree_type):
            kind, seed, scale = spec
            tree = check_against_oracle(make_positions(kind, n, seed, scale), tree_type,
                                        kind in TIE_FREE, bucket_size=1, max_depth=depth)
            assert tree.depth <= depth

        @given(inputs, st.integers(2, max_n), st.integers(1, 16), st.sampled_from(BINARY))
        @settings(max_examples=examples // 2, **COMMON)
        def test_order_inside_a_split(self, spec, n, bucket, tree_type):
            """A leaf's particles ascend in (coordinate on its parent's split
            axis, input index)."""
            kind, seed, scale = spec
            tree = build_tree(particles_from(make_positions(kind, n, seed, scale)),
                              tree_type=tree_type, bucket_size=bucket)
            pos, row = tree.particles.position, tree.particles.orig_index
            for leaf in tree.leaf_indices[tree.leaf_indices != 0]:
                up = tree.parent[leaf]
                axis = (tree.level[up] % 3 if tree_type == "kd"
                        else np.argmax(tree.box_hi[up] - tree.box_lo[up]))
                s, e = tree.pstart[leaf], tree.pend[leaf]
                assert np.array_equal(np.lexsort((row[s:e], pos[s:e, axis])), np.arange(e - s))

        @given(st.sampled_from(("uniform", "clumped", "collinear")), st.integers(0, 2**31 - 1),
               st.integers(2, max_n), st.integers(1, 16), st.sampled_from(BINARY))
        @settings(max_examples=examples // 2, **COMMON)
        def test_input_order_does_not_matter(self, kind, seed, n, bucket, tree_type):
            """Permute the input rows: the same tree, the same particles (a
            root that never splits keeps its input order, so make it split)."""
            n = max(n, bucket + 1)
            pos = make_positions(kind, n, seed, 1.0)
            shuffle = np.random.default_rng(seed).permutation(n)
            a = build_tree(particles_from(pos), tree_type=tree_type, bucket_size=bucket)
            b = build_tree(particles_from(pos[shuffle]), tree_type=tree_type, bucket_size=bucket)
            same_bytes(a, b, COUNT_ARRAYS + BOX_ARRAYS)
            assert a.particles.position.tobytes() == b.particles.position.tobytes()
            if len(np.unique(pos, axis=0)) == n:
                assert np.array_equal(a.particles.orig_index, shuffle[b.particles.orig_index])

    return Suite


class TestBuilderEqualsOracle(property_suite(max_n=400, examples=40)):
    pass


@pytest.mark.slow
class TestBuilderEqualsOracleWide(property_suite(max_n=3000, examples=150)):
    pass


class TestDeterministicCases:
    @pytest.mark.parametrize("tree_type", BINARY)
    def test_single_particle(self, tree_type):
        tree = check_against_oracle([[0.3, 0.4, 0.5]], tree_type, True, bucket_size=16)
        assert tree.n_nodes == 1

    @pytest.mark.parametrize("tree_type", BINARY)
    def test_two_particles(self, tree_type):
        tree = check_against_oracle([[0.0, 0.0, 0.0], [1.0, 2.0, 3.0]], tree_type, True,
                                    bucket_size=1)
        assert tree.n_nodes == 3

    @pytest.mark.parametrize("tree_type", BINARY)
    @pytest.mark.parametrize("bucket", [1, 3, 16, 64, 4096])
    def test_bucket_sweep_clustered(self, tree_type, bucket):
        pos = clustered_clumps(3000, seed=2).position
        check_against_oracle(pos, tree_type, True, bucket_size=bucket)

    @pytest.mark.parametrize("tree_type", BINARY)
    def test_all_duplicates_stop_at_the_cap(self, tree_type):
        tree = check_against_oracle(np.full((40, 3), 0.25), tree_type, True,
                                    bucket_size=4, max_depth=9)
        # median splits keep halving the count, so duplicates end by count
        assert tree.depth == 4 and tree.n_leaves == 16

    @pytest.mark.parametrize("tree_type", BINARY)
    def test_pure_function_of_the_input(self, tree_type):
        p = clustered_clumps(2500, seed=9)
        a, b = (build_tree(p.copy(), tree_type=tree_type, bucket_size=8) for _ in range(2))
        same_bytes(a, b, COUNT_ARRAYS + BOX_ARRAYS)
        assert np.array_equal(a.particles.orig_index, b.particles.orig_index)

    def test_tied_cut_differs_only_in_what_introselect_chose(self):
        """The documented exception: on a lattice the verbatim oracle's boxes
        may differ (its tie choice is unspecified) — its counts never do."""
        pos = make_positions("lattice", 600, 3, 1.0)
        config = TreeBuildConfig(tree_type="kd", bucket_size=4)
        tree = build_tree(particles_from(pos), config)
        same_bytes(tree, reference_binary_tree(particles_from(pos), config), COUNT_ARRAYS)
        same_bytes(tree, reference_binary_tree(particles_from(pos), config, canonical=True),
                   COUNT_ARRAYS + BOX_ARRAYS)
