"""Triangulations of the unit square.

The built-in family triangulates the unit square with a fixed diagonal
convention (lower-left to upper-right) so runs are bit-reproducible. It is
built by index arithmetic on whole arrays; unit_square_mesh(2n) halves the
mesh size of unit_square_mesh(n) exactly on dyadic grids.

Element geometry starts from one gather of the corner coordinates,
corner_coordinates: the x and the y of every element's corners as two
(nt, 3) arrays. The mesh size, the signed areas and fem's basis gradients
are formed from their (nt,) columns; no (nt, 3, 2) array of corner points
and no (3, nt, 2) stack of edge vectors is built.

Meshes are immutable value objects: the coordinate and index arrays are
frozen after construction and safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class MeshError(ValueError):
    """Invalid mesh data (array shapes, subdivision count)."""


def _frozen(a: np.ndarray, dtype) -> np.ndarray:
    out = np.ascontiguousarray(a, dtype=dtype)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class TriMesh:
    """Triangulation: vertex coordinates, vertex-index triples, boundary flags.

    mesh_size_h is the maximum element diameter (longest edge). triangles
    is int32, half the bytes of int64 connectivity; a mesh with more
    vertices than int32 can index raises MeshError.
    """

    vertices: np.ndarray = field(repr=False)
    triangles: np.ndarray = field(repr=False)
    boundary_vertex: np.ndarray = field(repr=False)
    mesh_size_h: float

    def __post_init__(self):
        if len(self.vertices) > np.iinfo(np.int32).max:
            raise MeshError(f"{len(self.vertices)} vertices exceed int32 indexing")
        object.__setattr__(self, "vertices", _frozen(self.vertices, np.float64))
        object.__setattr__(self, "triangles", _frozen(self.triangles, np.int32))
        object.__setattr__(
            self, "boundary_vertex", _frozen(self.boundary_vertex, bool)
        )
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 2:
            raise MeshError("vertices must be an (n, 2) array")
        if self.triangles.ndim != 2 or self.triangles.shape[1] != 3:
            raise MeshError("triangles must be an (m, 3) array")
        if self.boundary_vertex.shape != (self.vertices.shape[0],):
            raise MeshError("boundary_vertex must have one flag per vertex")

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_triangles(self) -> int:
        return self.triangles.shape[0]


def corner_coordinates(vertices: np.ndarray, triangles: np.ndarray) -> tuple:
    """(x, y): the coordinates of every element's corners, two (nt, 3)
    arrays, x[t, k] and y[t, k] those of corner k of triangle t."""
    # np.take on a contiguous coordinate column: about half the time of the
    # fancy index column[triangles], which first casts the int32 index
    return tuple(np.take(np.ascontiguousarray(vertices[:, d]), triangles) for d in (0, 1))


def corner_areas(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Signed areas from corner_coordinates' (x, y)."""
    return 0.5 * ((x[:, 1] - x[:, 0]) * (y[:, 2] - y[:, 0]) - (y[:, 1] - y[:, 0]) * (x[:, 2] - x[:, 0]))


def signed_areas(mesh: TriMesh) -> np.ndarray:
    """Signed area of every triangle (positive for counterclockwise)."""
    return corner_areas(*corner_coordinates(mesh.vertices, mesh.triangles))


def _max_edge_length(vertices: np.ndarray, triangles: np.ndarray) -> float:
    """Longest edge: the largest dx^2 + dy^2 over the three edges of every
    element, then one sqrt (sqrt is monotone, so this is the max of the
    lengths)."""
    x, y = corner_coordinates(vertices, triangles)
    longest = 0.0
    for i, j in ((1, 0), (2, 1), (0, 2)):
        dx, dy = x[:, i] - x[:, j], y[:, i] - y[:, j]
        dx *= dx
        dy *= dy
        dx += dy
        longest = max(longest, float(dx.max()))
    return float(np.sqrt(longest))


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


def unit_square_mesh(n: int) -> TriMesh:
    """Structured triangulation of (0,1)^2 with n subdivisions per side.

    (n+1)^2 vertices and 2*n^2 triangles; each grid cell is split along the
    diagonal from its lower-left to its upper-right corner.
    """
    if int(n) != n or n < 1:
        raise MeshError(f"subdivision count must be a positive integer, got {n!r}")
    vertices, triangles = unit_square_arrays(int(n))
    boundary = (
        (vertices[:, 0] == 0.0)
        | (vertices[:, 0] == 1.0)
        | (vertices[:, 1] == 0.0)
        | (vertices[:, 1] == 1.0)
    )
    h = _max_edge_length(vertices, triangles)
    return TriMesh(vertices, triangles, boundary, h)
