"""Per-element oracles of the two-shape geometry and the stencil sum.

fem stores the geometry of unit_square_mesh(n) as its two element shapes
and sums element arrays into a stencil array. These are the formulas it
replaced: the areas and basis gradients of every element, and the
longest edge, from a gather of its corner coordinates, and the scatter of
element arrays by one np.add.at into the CSR pattern, which sums each
entry's terms in ascending element index.
"""

import numpy as np
import scipy.sparse as sp

from nonsmooth_fem import fem
from nonsmooth_fem.mesh import corner_areas, corner_coordinates


def element_geometry(mesh):
    """Signed areas (nt,) and constant P1 basis gradients (nt, 3, 2), both
    from one gather of the corner coordinates: Dphi_i = (y_a - y_b,
    x_b - x_a) / (2 area), with a and b the corners after i in
    counterclockwise order."""
    x, y = corner_coordinates(mesh.vertices, mesh.triangles)
    areas = corner_areas(x, y)
    grads = np.empty((mesh.n_triangles, 3, 2))
    for i in range(3):
        a, b = (i + 1) % 3, (i + 2) % 3
        np.subtract(y[:, a], y[:, b], out=grads[:, i, 0])
        np.subtract(x[:, b], x[:, a], out=grads[:, i, 1])
    grads /= (2.0 * areas)[:, None, None]
    return areas, grads


def max_edge_length(vertices, triangles):
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


def table_geometry(space):
    """The space's two-shape table broadcast to every element: (areas (nt,),
    gradients (nt, 3, 2)), as element_geometry returns them."""
    nt = space.mesh.n_triangles
    return np.full(nt, space.area), space.grads[np.arange(nt) % 2]


def local_stiffness(grads, areas):
    """Element stiffness matrices (nt, 3, 3): the x products, plus the y
    products, times the areas."""
    gx, gy = grads[:, :, 0], grads[:, :, 1]
    local = gx[:, :, None] * gx[:, None, :]
    local += gy[:, :, None] * gy[:, None, :]
    local *= areas[:, None, None]
    return local


def local_mass(areas):
    return areas[:, None, None] * fem._P1_MASS


def local_drift(field, grads, areas):
    """Element matrices (nt, 3, 3) of the drift b_T . Dphi_j phi_i."""
    drift = field[:, :1] * grads[:, :, 0]
    drift += field[:, 1:] * grads[:, :, 1]
    drift *= areas[:, None] / 3.0
    return np.repeat(drift[:, None, :], 3, axis=1)


def scatter(space, local, corners):
    """Sum (nt, 3, 3) element matrices into the CSR on the unknowns that
    corners numbers (space.elem_dofs or space.mesh.triangles) by one
    np.add.at into the space's pattern; entries at dof -1 are dropped."""
    indices, indptr = fem._pattern(space, corners)
    size = len(indptr) - 1
    keys = np.repeat(np.arange(size, dtype=np.int64), np.diff(indptr)) * size + indices
    corners = corners.astype(np.int64)
    i = np.repeat(corners[:, :, None], 3, axis=2).ravel()
    j = np.repeat(corners[:, None, :], 3, axis=1).ravel()
    keep = (i >= 0) & (j >= 0)
    slot = np.full(i.size, keys.size)
    slot[keep] = np.searchsorted(keys, i[keep] * size + j[keep])
    assert np.array_equal(keys[slot[keep]], i[keep] * size + j[keep])
    data = np.zeros(keys.size + 1)
    np.add.at(data, slot, np.asarray(local, dtype=float).ravel())
    return sp.csr_matrix((data[:-1], indices, indptr), shape=(size, size))
