"""Oracle tests for the triangulation module.

Expected values are hand-derived (counts, lattice enumeration) or
recomputed in-test by independent routes (edge multisets, area sums).
"""

import math
import tracemalloc

import numpy as np
import pytest

from nonsmooth_fem import mesh
from nonsmooth_fem.mesh import MeshError, TriMesh, unit_square_mesh

import oracles


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
    assert abs(oracles.signed_areas(m).sum() - 1.0) <= 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 4, 8])
def test_unit_square_h(n):
    m = unit_square_mesh(n)
    assert m.mesh_size_h == pytest.approx(math.sqrt(2.0) / n, rel=1e-15)


def test_closed_form_h_is_bitwise_the_longest_gathered_edge():
    # the diagonal of the widest cell against the largest dx^2 + dy^2 over
    # every edge of the gathered corners (also checked for every n up to
    # 599 and at 1000, 1023, 1024, 2047 and 2048)
    for n in [*range(1, 100), 255, 256, 1000]:
        gathered = oracles.max_edge_length(*mesh.unit_square_arrays(n))
        assert unit_square_mesh(n).mesh_size_h == gathered, n


def test_vertex_count_beyond_int32_is_rejected(monkeypatch):
    # 46342^2 vertices pass int32: rejected before any array is built (the
    # grid coordinates alone would take about 17 GB each)
    def build(n):
        raise AssertionError(f"arrays built for n={n}")

    monkeypatch.setattr(mesh, "unit_square_arrays", build)
    with pytest.raises(MeshError, match="2147580964 vertices exceed int32"):
        unit_square_mesh(46341)


@pytest.mark.parametrize("n", [1, 7, 8, 16])
def test_mesh_is_its_subdivision_count(n):
    # the arrays come from n alone; there is no other constructor
    m = unit_square_mesh(n)
    vertices, triangles = mesh.unit_square_arrays(n)
    assert m == TriMesh(n) and m.n == n and hash(m) == hash(TriMesh(n))
    assert np.array_equal(m.vertices, vertices) and np.array_equal(m.triangles, triangles)
    with pytest.raises(TypeError):
        TriMesh(vertices, triangles, m.boundary_vertex, m.mesh_size_h)


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
        areas = oracles.signed_areas(unit_square_mesh(n))
        assert np.all(areas > 0.0)


def test_conformity_interior_edges_twice():
    # edges counted in-test: each side of each triangle as a sorted vertex pair
    for n in (3, 6):
        tris = np.asarray(unit_square_mesh(n).triangles)
        pairs = np.sort(np.stack([tris, np.roll(tris, -1, axis=1)], axis=-1).reshape(-1, 2))
        _, counts = np.unique(pairs, axis=0, return_counts=True)
        assert set(counts.tolist()) <= {1, 2}
        assert (counts == 1).sum() == 4 * n  # the boundary edges


def test_refine_h_halves_exactly():
    # doubling the subdivision count of the family halves h; dyadic
    # coordinates make the halving exact in floating point
    m, r, rr = unit_square_mesh(2), unit_square_mesh(4), unit_square_mesh(8)
    assert r.mesh_size_h == m.mesh_size_h / 2
    assert rr.mesh_size_h == m.mesh_size_h / 4


def test_area_partition_along_refinement_sequence():
    for n in (3, 6, 12, 24):
        assert abs(oracles.signed_areas(unit_square_mesh(n)).sum() - 1.0) <= 1e-12


def test_mesh_build_peak_per_free_dof():
    # the mesh size from two (nt, 3) corner coordinate arrays and (nt,)
    # edge columns: a traced peak of about 205 bytes per free dof at n=128,
    # bound 225; an (nt, 3, 2) corner gather with a (3, nt, 2) edge stack
    # peaked at 383
    tracemalloc.start()
    try:
        unit_square_mesh(128)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 225 * 127**2


def test_mesh_immutable():
    m = unit_square_mesh(2)
    with pytest.raises((ValueError, RuntimeError)):
        np.asarray(m.vertices)[0, 0] = 5.0
