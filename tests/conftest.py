"""Shared test fixtures."""

import numpy as np
import pytest

from nonsmooth_fem import mfg_solver as mfg


def _reduced_jacobian(problem, state, xi=None) -> np.ndarray:
    """The reduced MFG Jacobian J as a dense array. For a nonlocal coupling
    it is the leading (du, dm) block of the lifted matrix with the coupling
    block -Q_fv S E, S E built column by column by the smoother."""
    J = mfg.mfg_jacobian(problem, state, xi=xi)
    if problem.coupling.kind == "local":
        return J.toarray()
    space = problem.space
    n = space.n_free
    smoother = mfg._smoother(problem)
    unit = np.zeros(space.mesh.n_vertices)
    SE = np.empty((space.mesh.n_vertices, n))
    for j, dof in enumerate(space.free_dofs):
        unit[dof] = 1.0
        SE[:, j] = smoother.apply(unit)
        unit[dof] = 0.0
    reduced = J[: 2 * n, : 2 * n].toarray()
    reduced[:n, n:] = -(mfg.coupling_weighted_mass(problem, state.m) @ SE)
    return reduced


@pytest.fixture
def reduced_jacobian():
    """_reduced_jacobian(problem, state, xi=None): the reference J that
    mfg_jacobian lifts for a nonlocal coupling."""
    return _reduced_jacobian
