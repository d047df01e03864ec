"""Schur recursion over graded cores and assembly of the predicted spectrum.

Each equivalence class contributes one eigenvalue group per barrier level:
level k pairs the k-th smallest barrier S_k with the eigenvalues of
J(R^(k-1)(core)), where J extracts the leading block and R forms the Schur
complement onto the remaining blocks. The global minimum's class contributes
the exact eigenvalue 0. An eigenvalue zeta^2 at barrier S predicts
lambda(h) = h * zeta^2 * exp(-2S/h).
"""

import math
from typing import NamedTuple

import numpy as np

from .errors import InputDataError, InvariantViolation
from .prefactors import GradedCore, build_class_matrices, build_graded_core

_EIG_RESIDUAL = 1e-12


def sym_eig(M):
    """Eigenvalues of a symmetric matrix, ascending, with a residual check.

    Contract: relative residual ||Mv - lv|| <= 1e-12 ||M|| for every pair,
    on the dense class matrices this package produces; tested up to
    dimension 199, the ring class of ``example ex-c --n 200``.
    """
    M = np.asarray(M, dtype=float)
    Ms = 0.5 * (M + M.T)
    w, V = np.linalg.eigh(Ms)
    scale = max(abs(w[0]), abs(w[-1])) if w.size else 0.0
    if scale > 0:
        resid = np.linalg.norm(Ms @ V - V * w, axis=0)
        if np.any(resid > _EIG_RESIDUAL * scale):
            raise InvariantViolation("eigendecomposition residual too large")
    return w


def schur_J(g: GradedCore):
    """Leading block of the core (the whole core when p = 1)."""
    r1 = g.blocks[0][0]
    return g.core[:r1, :r1].copy()


def schur_R(g: GradedCore):
    """Schur complement onto the remaining blocks, dropping the leading one."""
    if g.p < 2:
        raise InputDataError("core has a single level; no Schur complement")
    # SciPy loads only for classes with several barrier levels; NumPy's
    # cholesky plus solve rounds differently and would change the report
    from scipy.linalg import cho_factor, cho_solve
    r1 = g.blocks[0][0]
    J = g.core[:r1, :r1]
    B = g.core[r1:, :r1]
    N = g.core[r1:, r1:]
    R = N - B @ cho_solve(cho_factor(J), B.T)
    R = 0.5 * (R + R.T)
    return GradedCore(R, g.blocks[1:])


class LevelSpectrum(NamedTuple):
    S: float               # barrier of this level
    zeta2: np.ndarray      # eigenvalues of J(R^(k-1)), ascending, all > 0


def class_spectrum(g: GradedCore):
    """One LevelSpectrum per barrier level, smallest barrier first."""
    out = []
    p = g.p
    for k in range(p):
        S = g.blocks[0][1]
        w = sym_eig(schur_J(g))
        if w[0] <= 0:
            raise InvariantViolation(
                "nonpositive leading eigenvalue in the Schur recursion")
        # the report prints pi * zeta2 next to zeta2, and a null there
        # would read as a result: Hessian data that overflows it is bad input
        if not math.isfinite(math.pi * float(w[-1])):
            raise InputDataError(
                f"pi * zeta2 at S = {S} is beyond float range")
        out.append(LevelSpectrum(S, w))
        if k + 1 < p:
            g = schur_R(g)
    return out


class SpectrumEntry(NamedTuple):
    lam: float          # h * zeta2 * exp(-2S/h); 0.0 for the ground state
    log_lam: float      # stable log of lam (-inf for the ground state)
    S: float
    zeta2: float
    members: tuple


class ClassSpectrum(NamedTuple):
    cls: object
    matrices: object    # ClassMatrices; None for the ground class
    levels: tuple       # LevelSpectrum tuple; empty for the ground class


class SpectrumReport:
    """Predicted low-lying spectrum of the landscape.

    ``classes`` holds one ClassSpectrum per equivalence class, in the order
    of ``cd.classes`` (ground class first); ``cs`` is the structure they
    came from. ``evaluate(h)`` turns the (S, zeta2) pairs into eigenvalues at a
    concrete h, sorted ascending; the ground state is exactly 0.
    """

    def __init__(self, cs, cd, classes):
        self.cs = cs
        self.cd = cd
        self.classes = tuple(classes)
        n0 = sum(len(c.members) for c in cd.classes)
        count = 1 + sum(
            lv.zeta2.size for cs_ in self.classes for lv in cs_.levels)
        if count != n0:
            raise InvariantViolation(
                f"spectrum carries {count} values for {n0} minima")
        self.n0 = n0

    def evaluate(self, h):
        if not h > 0:
            raise InputDataError("h must be positive")
        out = [SpectrumEntry(0.0, -math.inf, math.inf, 0.0,
                             self.cd.ground.members)]
        for cs_ in self.classes:
            for level in cs_.levels:
                for z in level.zeta2.tolist():
                    hz = h * z
                    if not 0.0 < hz < math.inf:
                        raise InputDataError(
                            f"h * zeta2 = {hz} at h = {h} is out of range")
                    log_lam = math.log(hz) - 2.0 * level.S / h
                    if not math.isfinite(log_lam):
                        raise InputDataError(
                            f"log lambda at h = {h} is out of range")
                    lam = hz * math.exp(-2.0 * level.S / h)
                    out.append(SpectrumEntry(
                        lam, log_lam, level.S, z,
                        cs_.cls.members))
        out.sort(key=lambda e: e.log_lam)
        return out


def full_spectrum(cs, cd):
    """Class-by-class matrices and spectra plus the exact zero of the ground
    class: each class's Upsilon, T and core are built here, once."""
    classes = [ClassSpectrum(cd.ground, None, ())]
    for c in cd.classes[1:]:
        m = build_class_matrices(cs, cd, c)
        levels = class_spectrum(build_graded_core(c, m))
        classes.append(ClassSpectrum(c, m, tuple(levels)))
    return SpectrumReport(cs, cd, classes)
