"""Oracle tests for the triangulation module.

Expected values are hand-derived (counts, refinement numbering, Euler
formula) or recomputed in-test by independent routes (edge multisets, area
sums, the structured mesh of double resolution).
"""

import math

import numpy as np
import pytest

from nonsmooth_fem.mesh import (
    MeshError,
    edge_map,
    refine_uniform,
    signed_areas,
    unit_square_mesh,
)


def test_unit_square_smallest():
    m = unit_square_mesh(1)
    assert m.n_vertices == 4
    assert m.n_triangles == 2
    assert m.mesh_size_h == math.sqrt(2.0)


def test_unit_square_counts_n2_by_enumeration():
    m = unit_square_mesh(2)
    assert m.n_vertices == (2 + 1) ** 2 == 9
    assert m.n_triangles == 2 * 2**2 == 8
    # every vertex of the 3x3 lattice appears exactly once
    lattice = {(i / 2, j / 2) for i in range(3) for j in range(3)}
    got = {tuple(v) for v in np.asarray(m.vertices)}
    assert got == lattice


def test_unit_square_area_partition():
    m = unit_square_mesh(4)
    assert abs(signed_areas(m).sum() - 1.0) <= 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 4, 8])
def test_unit_square_h(n):
    m = unit_square_mesh(n)
    assert m.mesh_size_h == pytest.approx(math.sqrt(2.0) / n, rel=1e-15)


def test_unit_square_rejects_nonpositive_n():
    with pytest.raises((MeshError, ValueError)):
        unit_square_mesh(0)
    with pytest.raises((MeshError, ValueError)):
        unit_square_mesh(-3)


def test_boundary_flags_unit_square():
    m = unit_square_mesh(3)
    v = np.asarray(m.vertices)
    on_boundary = (
        (v[:, 0] == 0.0) | (v[:, 0] == 1.0) | (v[:, 1] == 0.0) | (v[:, 1] == 1.0)
    )
    assert np.array_equal(np.asarray(m.boundary_vertex), on_boundary)


def test_orientation_positive():
    for n in (1, 2, 5):
        areas = signed_areas(unit_square_mesh(n))
        assert np.all(areas > 0.0)


def test_conformity_interior_edges_twice():
    m = unit_square_mesh(3)
    _, _, counts = edge_map(m)
    assert set(counts.tolist()) <= {1, 2}
    m2 = refine_uniform(m)
    _, _, counts = edge_map(m2)
    assert (counts == 1).sum() == 4 * 6  # 6 subdivisions per side after refining n=3
    assert (counts == 2).sum() + (counts == 1).sum() == counts.size


def test_refine_counts_and_h():
    m = refine_uniform(unit_square_mesh(1))
    assert m.n_triangles == 8
    assert m.mesh_size_h == math.sqrt(2.0) / 2


def test_refine_h_halves_exactly():
    m = unit_square_mesh(2)
    r = refine_uniform(m)
    rr = refine_uniform(r)
    # dyadic coordinates make the halving exact in floating point
    assert r.mesh_size_h == m.mesh_size_h / 2
    assert rr.mesh_size_h == m.mesh_size_h / 4


@pytest.mark.parametrize("n", [1, 2, 3])
def test_refine_gives_the_structured_mesh_of_double_resolution(n):
    # equal triangle sets imply congruent children, the 45 degree minimum
    # angle and a shape ratio that refinement keeps constant
    # coordinates in units of 1/(2n): for n=3 a midpoint such as
    # (2/3 + 1)/2 differs from 5/6 in the last bit
    def triangle_set(m):
        lattice = np.asarray(m.vertices) * (2 * n)
        ij = np.rint(lattice).astype(int)
        assert np.abs(lattice - ij).max() <= 1e-12
        return {frozenset(map(tuple, ij[t].tolist())) for t in np.asarray(m.triangles)}

    r = refine_uniform(unit_square_mesh(n))
    s = unit_square_mesh(2 * n)
    assert r.n_triangles == s.n_triangles
    assert triangle_set(r) == triangle_set(s)


def test_refine_numbering_of_the_single_cell():
    # corners 0..3 = (0,0), (1,0), (0,1), (1,1); triangles (0,1,3), (0,3,2);
    # sorted edges (0,1), (0,2), (0,3), (1,3), (2,3) give midpoints 4..8
    r = refine_uniform(unit_square_mesh(1))
    expected = [
        [0, 4, 6], [1, 7, 4], [3, 6, 7], [4, 7, 6],
        [0, 6, 5], [3, 8, 6], [2, 5, 8], [6, 8, 5],
    ]
    assert np.array_equal(np.asarray(r.triangles), expected)
    # only the diagonal's midpoint (0.5, 0.5) is interior
    assert np.array_equal(
        np.asarray(r.boundary_vertex), [True] * 6 + [False] + [True] * 2
    )


def test_refine_vertex_count_is_v_plus_e():
    m = unit_square_mesh(2)
    edges, tri_edges, _ = edge_map(m)
    n_edges = len(edges)
    assert n_edges == 16  # 2*(2*3) lattice edges + 4 diagonals
    assert np.array_equal(np.unique(tri_edges), np.arange(n_edges))
    r = refine_uniform(m)
    assert r.n_vertices == m.n_vertices + n_edges
    # and matches the structured mesh of double resolution
    assert r.n_vertices == unit_square_mesh(4).n_vertices
    assert r.n_triangles == unit_square_mesh(4).n_triangles


def test_refine_matches_structured_double_resolution_geometry():
    r = refine_uniform(unit_square_mesh(2))
    s = unit_square_mesh(4)
    assert sorted(map(tuple, np.asarray(r.vertices).tolist())) == sorted(
        map(tuple, np.asarray(s.vertices).tolist())
    )
    assert abs(signed_areas(r).sum() - 1.0) <= 1e-12


def test_refined_midpoint_boundary_flags():
    r = refine_uniform(unit_square_mesh(1))
    v = np.asarray(r.vertices)
    on_boundary = (
        (v[:, 0] == 0.0) | (v[:, 0] == 1.0) | (v[:, 1] == 0.0) | (v[:, 1] == 1.0)
    )
    # the diagonal midpoint (0.5, 0.5) must NOT be flagged even though the
    # diagonal's endpoints are corner (boundary) vertices
    assert np.array_equal(np.asarray(r.boundary_vertex), on_boundary)


def test_area_partition_along_refinement_sequence():
    m = unit_square_mesh(3)
    for _ in range(3):
        assert abs(signed_areas(m).sum() - 1.0) <= 1e-12
        m = refine_uniform(m)


def test_mesh_immutable():
    m = unit_square_mesh(2)
    with pytest.raises((ValueError, RuntimeError)):
        np.asarray(m.vertices)[0, 0] = 5.0
