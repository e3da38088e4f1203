"""The mesh family of the unit square: unit_square_mesh(n).

Every mesh is the structured triangulation of (0,1)^2 with n subdivisions
per side and a fixed diagonal convention (lower-left to upper-right), so
runs are bit-reproducible. A TriMesh is its subdivision count: its arrays
are built from n by index arithmetic on whole arrays, and no other array
can be given to it. fem reads mesh.n for the grid hierarchy, point location,
the CSR pattern and the element corners, which are slices of the vertex
grid. unit_square_mesh(2n) halves the mesh size of unit_square_mesh(n)
exactly on dyadic grids.

The mesh size is closed form, the diagonal of the widest grid cell; the
element areas and gradients are the two shapes of a grid cell's halves
(fem), so no per-element geometry is built here.

Meshes are immutable value objects: the coordinate and index arrays are
frozen after construction and safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class MeshError(ValueError):
    """Invalid subdivision count."""


@dataclass(frozen=True)
class TriMesh:
    """unit_square_mesh(n): n is its one field and its only constructor
    argument; the rest is built from n.

    vertices (float64, (n+1)^2 x 2) are numbered row by row from (0, 0);
    triangles (int32, 2 n^2 x 3) list the two halves of grid cell (i, j),
    row-major by cell, as (v00, v10, v11) then (v00, v11, v01);
    boundary_vertex flags the vertices on the square's sides; mesh_size_h
    is the longest edge. All three arrays are read-only. Two meshes are
    equal when their n are. An n that is not a positive integer, or whose
    (n+1)^2 vertices int32 cannot index, raises MeshError before any array
    exists.
    """

    n: int

    def __post_init__(self):
        n = self.n
        if int(n) != n or n < 1:
            raise MeshError(f"subdivision count must be a positive integer, got {n!r}")
        n = int(n)
        if (n + 1) ** 2 > np.iinfo(np.int32).max:
            raise MeshError(f"{(n + 1) ** 2} vertices exceed int32 indexing")
        vertices, triangles = unit_square_arrays(n)
        for name, a in (("vertices", vertices), ("triangles", triangles),
                        ("boundary_vertex", grid_boundary(n))):
            a.setflags(write=False)
            object.__setattr__(self, name, a)
        object.__setattr__(self, "n", n)
        # the longest edge is a cell diagonal: with d the widest spacing of
        # the grid coordinates, sqrt(d^2 + d^2) rounds as the largest
        # dx^2 + dy^2 over all edges does
        d = float(np.diff(np.arange(n + 1) / n).max())
        object.__setattr__(self, "mesh_size_h", float(np.sqrt(d * d + d * d)))

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_triangles(self) -> int:
        return self.triangles.shape[0]


def unit_square_arrays(n: int) -> tuple:
    """(vertices, triangles) of unit_square_mesh(n), n a positive integer."""
    side = np.arange(n + 1) / n
    xx, yy = np.meshgrid(side, side, indexing="xy")
    vertices = np.column_stack([xx.ravel(), yy.ravel()])

    # corner ids of every grid cell, row-major by cell (column i, row j)
    j, i = np.divmod(np.arange(n * n, dtype=np.int32), n)
    v00 = j * (n + 1) + i
    v10, v01, v11 = v00 + 1, v00 + n + 1, v00 + n + 2
    triangles = np.stack([v00, v10, v11, v00, v11, v01], axis=1).reshape(-1, 3)
    return vertices, triangles


def grid_boundary(n: int) -> np.ndarray:
    """Boundary flags of the vertices of unit_square_mesh(n): vertex
    j (n + 1) + i lies on a side when i or j is 0 or n."""
    side = np.arange(n + 1) % n == 0
    return (side[:, None] | side[None, :]).ravel()


def unit_square_mesh(n: int) -> TriMesh:
    """Structured triangulation of (0,1)^2 with n subdivisions per side:
    TriMesh(n), (n+1)^2 vertices and 2*n^2 triangles; each grid cell is
    split along the diagonal from its lower-left to its upper-right corner.
    """
    return TriMesh(n)
