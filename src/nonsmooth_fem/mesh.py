"""Triangulations of the unit square and their uniform refinement.

The built-in family triangulates the unit square with a fixed diagonal
convention (lower-left to upper-right) so runs are bit-reproducible.
Uniform midpoint refinement splits every triangle into four congruent
children, which keeps the shape-regularity ratio of the initial mesh and
halves the mesh size exactly on dyadic grids. Both are built by index
arithmetic on whole arrays: refinement numbers its midpoints through
edge_map, whose sorted unique edges come from one np.unique on the 1-D key
i * n_vertices + j of each sorted vertex pair.

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

    mesh_size_h is the maximum element diameter (longest edge).
    """

    vertices: np.ndarray = field(repr=False)
    triangles: np.ndarray = field(repr=False)
    boundary_vertex: np.ndarray = field(repr=False)
    mesh_size_h: float

    def __post_init__(self):
        object.__setattr__(self, "vertices", _frozen(self.vertices, np.float64))
        object.__setattr__(self, "triangles", _frozen(self.triangles, np.int64))
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


def signed_areas(mesh: TriMesh) -> np.ndarray:
    """Signed area of every triangle (positive for counterclockwise)."""
    p = mesh.vertices[mesh.triangles]
    d1 = p[:, 1] - p[:, 0]
    d2 = p[:, 2] - p[:, 0]
    return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])


def _max_edge_length(vertices: np.ndarray, triangles: np.ndarray) -> float:
    p = vertices[triangles]
    e = np.stack([p[:, 1] - p[:, 0], p[:, 2] - p[:, 1], p[:, 0] - p[:, 2]])
    return float(np.sqrt((e * e).sum(axis=-1)).max())


def edge_map(mesh: TriMesh):
    """Unique edges of a triangulation: (edges, tri_edges, counts).

    edges (ne, 2) holds the sorted vertex pairs i < j in lexicographic
    order; tri_edges (nt, 3) gives the index into edges of the sides (i, j),
    (j, k), (k, i) of each triangle (i, j, k); counts (ne,) is the number of
    incident triangles, 1 on the boundary and 2 inside a conforming mesh.
    """
    tris = mesh.triangles
    pairs = np.stack([tris, np.roll(tris, -1, axis=1)], axis=-1).reshape(-1, 2)
    pairs.sort(axis=1)
    n_v = mesh.n_vertices
    keys, inverse, counts = np.unique(
        pairs[:, 0] * n_v + pairs[:, 1], return_inverse=True, return_counts=True
    )
    edges = np.column_stack(np.divmod(keys, n_v))
    return edges, inverse.reshape(-1, 3), counts


def unit_square_mesh(n: int) -> TriMesh:
    """Structured triangulation of (0,1)^2 with n subdivisions per side.

    (n+1)^2 vertices and 2*n^2 triangles; each grid cell is split along the
    diagonal from its lower-left to its upper-right corner.
    """
    if int(n) != n or n < 1:
        raise MeshError(f"subdivision count must be a positive integer, got {n!r}")
    n = int(n)
    side = np.arange(n + 1) / n
    xx, yy = np.meshgrid(side, side, indexing="xy")
    vertices = np.column_stack([xx.ravel(), yy.ravel()])

    # corner ids of every grid cell, row-major by cell (column i, row j)
    j, i = np.divmod(np.arange(n * n, dtype=np.int64), n)
    v00 = j * (n + 1) + i
    v10, v01, v11 = v00 + 1, v00 + n + 1, v00 + n + 2
    triangles = np.stack([v00, v10, v11, v00, v11, v01], axis=1).reshape(-1, 3)
    boundary = (
        (vertices[:, 0] == 0.0)
        | (vertices[:, 0] == 1.0)
        | (vertices[:, 1] == 0.0)
        | (vertices[:, 1] == 1.0)
    )
    h = _max_edge_length(vertices, triangles)
    return TriMesh(vertices, triangles, boundary, h)


def refine_uniform(mesh: TriMesh) -> TriMesh:
    """Split each triangle into 4 congruent children via edge midpoints.

    The midpoint of edge e of edge_map(mesh) gets vertex id n_vertices + e,
    so that map is also the P1 prolongation from this mesh to the refined
    one. Midpoints are flagged as boundary exactly when their parent edge
    lies on the boundary (is incident to a single triangle). Triangle
    (i, j, k) has children (i, mij, mki), (j, mjk, mij), (k, mki, mjk) and
    (mij, mjk, mki), in that order.
    """
    edges, tri_edges, counts = edge_map(mesh)
    verts = mesh.vertices
    vertices = np.vstack([verts, 0.5 * (verts[edges[:, 0]] + verts[edges[:, 1]])])
    flags = np.concatenate([mesh.boundary_vertex, counts == 1])
    i, j, k = mesh.triangles.T
    mij, mjk, mki = (mesh.n_vertices + tri_edges).T
    triangles = np.stack(
        [i, mij, mki, j, mjk, mij, k, mki, mjk, mij, mjk, mki], axis=1
    ).reshape(-1, 3)
    h = _max_edge_length(vertices, triangles)
    return TriMesh(vertices, triangles, flags, h)
