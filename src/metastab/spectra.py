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
from .prefactors import GradedCore, build_graded_core

_EIG_RESIDUAL = 1e-12


def sym_eig(M):
    """Eigenvalues of a symmetric matrix, ascending, with a residual check.

    Contract: relative residual ||Mv - lv|| <= 1e-12 ||M|| for every pair,
    on the small dense matrices this package produces (dimension <= 64).
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
    return GradedCore(R, g.blocks[1:], g.cls)


class LevelSpectrum(NamedTuple):
    S: float               # barrier of this level
    matrix: np.ndarray     # leading matrix J(R^(k-1))
    zeta2: np.ndarray      # its eigenvalues, ascending, all > 0


def class_spectrum(g: GradedCore):
    """One LevelSpectrum per barrier level, smallest barrier first."""
    out = []
    p = g.p
    for k in range(p):
        S = g.blocks[0][1]
        M0 = schur_J(g)
        w = sym_eig(M0)
        if w[0] <= 0:
            raise InvariantViolation(
                "nonpositive leading eigenvalue in the Schur recursion")
        out.append(LevelSpectrum(S, M0, w))
        if k + 1 < p:
            g = schur_R(g)
    return out


class SpectrumEntry(NamedTuple):
    lam: float          # h * zeta2 * exp(-2S/h); 0.0 for the ground state
    log_lam: float      # stable log of lam (-inf for the ground state)
    S: float
    zeta2: float
    members: tuple
    level: int          # 1-based barrier level within the class; 0 = ground


class ClassSpectrum(NamedTuple):
    cls: object
    levels: tuple       # LevelSpectrum tuple; empty for the ground class


class SpectrumReport:
    """Predicted low-lying spectrum of the landscape.

    ``classes`` holds one ClassSpectrum per equivalence class, ground class
    first. ``evaluate(h)`` turns the (S, zeta2) pairs into eigenvalues at a
    concrete h, sorted ascending; the ground state is exactly 0.
    """

    def __init__(self, cd, classes):
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
                             self.cd.ground.members, 0)]
        for cs_ in self.classes:
            for lvl, level in enumerate(cs_.levels, start=1):
                for z in level.zeta2:
                    log_lam = math.log(h * z) - 2.0 * level.S / h
                    lam = h * z * math.exp(-2.0 * level.S / h)
                    out.append(SpectrumEntry(
                        lam, log_lam, level.S, float(z),
                        cs_.cls.members, lvl))
        out.sort(key=lambda e: e.log_lam)
        return out


def full_spectrum(cs, cd, cores=None):
    """Class-by-class spectra plus the exact zero of the ground class."""
    if cores is None:
        cores = {
            c: build_graded_core(cs, cd, c) for c in cd.classes if not c.ground
        }
    classes = [ClassSpectrum(cd.ground, ())]
    for c in cd.classes:
        if c.ground:
            continue
        classes.append(ClassSpectrum(c, tuple(class_spectrum(cores[c]))))
    return SpectrumReport(cd, classes)
