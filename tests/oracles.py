"""Per-element oracles of the grid readers, the two-shape geometry and the
stencil sum; the dense stability constant.

fem reads element corners as slices of the vertex grid, stores the
geometry of unit_square_mesh(n) as its two element shapes and sums element
arrays into a stencil array. These are the formulas it replaced: the
corner values, rule-point coordinates and gradients of every element
from a gather through mesh.triangles; the areas and basis gradients of
every element, and the longest edge, from a gather of its corner
coordinates; the scatter of element arrays by one np.add.at into the CSR
pattern, which sums each entry's terms in ascending element index; and
the free-dof prolongations sliced out of the all-vertex ones.
diagnostics.preconditioned_constant's Lanczos solve is checked against
the dense Schur complement, Cholesky whitening and SVD.
"""

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from nonsmooth_fem import fem
from nonsmooth_fem.mesh import grid_boundary


def corner_coordinates(vertices, triangles):
    """(x, y): the coordinates of every element's corners, two (nt, 3)
    arrays, x[t, k] and y[t, k] those of corner k of triangle t."""
    return tuple(np.take(np.ascontiguousarray(vertices[:, d]), triangles) for d in (0, 1))


def corner_areas(x, y):
    """Signed areas from corner_coordinates' (x, y)."""
    return 0.5 * ((x[:, 1] - x[:, 0]) * (y[:, 2] - y[:, 0]) - (y[:, 1] - y[:, 0]) * (x[:, 2] - x[:, 0]))


def signed_areas(mesh):
    """Signed area of every triangle (positive for counterclockwise)."""
    return corner_areas(*corner_coordinates(mesh.vertices, mesh.triangles))


def quad_points(space):
    """fem.quad_points' rule points, each summed from one gather of every
    corner: a list of the (nt, 2) coordinates, in the order of the rule."""
    vertices, triangles = space.mesh.vertices, space.mesh.triangles
    points = []
    for b in fem._QUAD_BARY:
        X = np.take(vertices, triangles[:, 0], axis=0) * b[0]
        for k in (1, 2):
            X += np.take(vertices, triangles[:, k], axis=0) * b[k]
        points.append(X)
    return points


def corner_values(space, nodal):
    """(3, nt) values of the all-vertex field nodal at each element's
    corners: the transpose of the (nt, 3) gather."""
    return np.take(nodal, space.mesh.triangles).T


def rule_values(space, nodal):
    """The P1 function with all-vertex values nodal at the rule's points,
    (nq, nt), from the fancy-index gather nodal[triangles.T]."""
    return fem._QUAD_BARY @ nodal[space.mesh.triangles.T]


def element_gradients(space, u):
    """(nt, 2) gradients of u_h: one matmul per half on the (nt, 3) gather
    of the corner values."""
    nodal = np.take(fem.extend_to_vertices(space, u), space.mesh.triangles).reshape(-1, 2, 3)
    Du = np.empty((len(nodal), 2, 2))
    for p in (0, 1):
        np.matmul(nodal[:, p], space.grads[p], out=Du[:, p])
    return Du.reshape(-1, 2)


def free_prolongation(n):
    """The P1 prolongation between the free dofs of levels n and n // 2:
    the all-vertex one with its boundary rows, then columns, sliced off."""
    fine, coarse = (np.flatnonzero(~grid_boundary(k)) for k in (n, n // 2))
    return fem._grid_prolongation(n)[fine][:, coarse]


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


def dense_constant(J, G):
    """Smallest singular value of G^{-1} J_red in the G geometry, densely:
    J_red is the Schur complement of J's trailing auxiliary block (J itself
    when J and G have one size), and with G = L L^T the value is the
    smallest singular value of L^{-1} J_red L^{-T}."""
    n = G.shape[0]
    Jd = J.toarray() if sp.issparse(J) else np.asarray(J, dtype=float)
    if Jd.shape[0] > n:
        Jd = Jd[:n, :n] - Jd[:n, n:] @ scipy.linalg.solve(Jd[n:, n:], Jd[n:, :n])
    L = scipy.linalg.cholesky(G.toarray(), lower=True)
    JLt = scipy.linalg.solve_triangular(L, Jd.T, lower=True).T
    whitened = scipy.linalg.solve_triangular(L, JLt, lower=True)
    return float(scipy.linalg.svdvals(whitened)[-1])
