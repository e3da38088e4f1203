"""Finite element solvers for viscous Hamilton-Jacobi equations and
stationary mean field games with Lipschitz (nonsmooth) Hamiltonians.

Modules:
    mesh         structured triangulations of the unit square
    fem          P1 Lagrange assembly, V-cycle Krylov solves, discrete norms
    hamiltonian  Hamiltonian models with pointwise generalized-Jacobian selections
    hj_solver    semismooth Newton / damped Picard for Hamilton-Jacobi problems
    mfg_solver   block Newton / fixed-point solvers for the coupled MFG system
    diagnostics  discrete Banach constants, stability scans, refinement studies
    manufactured closed-form test solutions with compensating sources
    cli          batch front end (experiment configs, JSON/CSV reports)
"""

__version__ = "0.1.0"
