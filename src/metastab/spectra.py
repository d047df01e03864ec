"""Schur recursion over graded cores and assembly of the predicted spectrum.

Each equivalence class contributes one eigenvalue group per barrier level:
level k pairs the k-th smallest barrier S_k with the eigenvalues of
J(R^(k-1)(core)), where J extracts the leading block and R forms the Schur
complement onto the remaining blocks. The global minimum's class contributes
the exact eigenvalue 0. An eigenvalue zeta^2 at barrier S predicts
lambda(h) = h * zeta^2 * exp(-2S/h).

``full_spectrum`` takes the classes one shape group at a time (see
``prefactors``): each level of a group is one stacked ``eigh`` with one
residual check, and only groups with several barrier levels run the Schur
complement, one class at a time.
"""

import math
from typing import NamedTuple

import numpy as np

from .errors import InputDataError, InvariantViolation
from .prefactors import (ClassMatrices, GradedCore, build_class_matrices,
                         build_graded_core)

_EIG_RESIDUAL = 1e-12


def sym_eig(M):
    """Eigenvalues of a symmetric matrix, ascending, with a residual check;
    a stack of matrices (..., n, n) gives a stack of eigenvalues (..., n).

    Contract: relative residual ||Mv - lv|| <= 1e-12 ||M|| for every pair,
    on the dense class matrices this package produces; tested up to
    dimension 199, the ring class of ``example ex-c --n 200``.
    """
    M = np.asarray(M, dtype=float)
    Ms = 0.5 * (M + np.swapaxes(M, -1, -2))
    w, V = np.linalg.eigh(Ms)
    # ||M|| is the largest |eigenvalue|; the residual is measured in that
    # unit so that no square overflows, and a zero matrix is not checked
    scale = np.maximum(abs(w[..., :1]), abs(w[..., -1:]))[..., None]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        resid = np.linalg.norm((Ms @ V - V * w[..., None, :]) / scale,
                               axis=-2)
    if np.any(resid > _EIG_RESIDUAL):
        raise InvariantViolation("eigendecomposition residual too large")
    return w


def schur_J(g: GradedCore):
    """Leading blocks of the cores (the whole cores when p = 1)."""
    r1 = g.blocks[0][0]
    return g.core[:, :r1, :r1].copy()


def schur_R(g: GradedCore):
    """Schur complements onto the remaining blocks, dropping the leading
    one, class by class."""
    if g.p < 2:
        raise InputDataError("core has a single level; no Schur complement")
    # LAPACK loads only for classes with several barrier levels (see
    # _lapack). These are the potrf and potrs calls, with the checks, of
    # scipy.linalg's cho_solve(cho_factor(J), B.T); NumPy's cholesky plus
    # solve rounds differently and would change the report.
    from ._lapack import check_info, flapack
    lapack = flapack()
    r1 = g.blocks[0][0]
    n = g.core.shape[-1] - r1
    R = np.empty((len(g.core), n, n))
    for i, core in enumerate(g.core):
        J = np.asarray_chkfinite(core[:r1, :r1])
        B = np.asarray_chkfinite(core[r1:, :r1])
        N = core[r1:, r1:]
        c, info = lapack.dpotrf(J, lower=0, clean=0)
        if info > 0:
            raise np.linalg.LinAlgError(
                f"{info}-th leading minor of the array is not positive "
                "definite")
        check_info(info, "potrf")
        X, info = lapack.dpotrs(c, B.T, lower=0)
        check_info(info, "potrs")
        R[i] = N - B @ X
    return GradedCore(0.5 * (R + np.swapaxes(R, 1, 2)), g.blocks[1:])


class LevelSpectrum(NamedTuple):
    S: float               # barrier of this level
    zeta2: np.ndarray      # eigenvalues of J(R^(k-1)), ascending, all > 0


def class_spectrum(g: GradedCore):
    """For each class of the group, one LevelSpectrum per barrier level,
    smallest barrier first."""
    levels = []
    p = g.p
    for k in range(p):
        S = g.blocks[0][1]
        w = sym_eig(schur_J(g))
        if np.any(w[:, 0] <= 0):
            raise InvariantViolation(
                "nonpositive leading eigenvalue in the Schur recursion")
        # the report prints pi * zeta2 next to zeta2, and a null there
        # would read as a result: Hessian data that overflows it is bad input
        with np.errstate(over="ignore", invalid="ignore"):
            big = ~np.isfinite(math.pi * w[:, -1])
        if big.any():
            raise InputDataError(
                f"pi * zeta2 at S = {S[int(np.argmax(big))]} is beyond float "
                "range")
        levels.append([LevelSpectrum(*lv) for lv in zip(S, w)])
        if k + 1 < p:
            g = schur_R(g)
    return list(zip(*levels))


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
    """Matrices and spectra of every class plus the exact zero of the ground
    class. The non-ground classes are taken one shape group at a time, in
    the order of each group's first class; each class's Upsilon, T and core
    are built once, and each class keeps views into its group's arrays."""
    groups = {}
    for i, c in enumerate(cd.classes[1:], start=1):
        key = len(c.saddles), c.type2, tuple(map(len, c.member_blocks))
        groups.setdefault(key, []).append(i)
    classes = [None] * len(cd.classes)
    classes[0] = ClassSpectrum(cd.ground, None, ())
    for at in groups.values():
        group = [cd.classes[i] for i in at]
        m = build_class_matrices(cs, cd, group)
        levels = class_spectrum(build_graded_core(group, m))
        theta0 = [None] * len(at) if m.theta0 is None else m.theta0
        for i, c, U, T, th, lv in zip(at, group, m.upsilon, m.T, theta0,
                                      levels):
            classes[i] = ClassSpectrum(c, ClassMatrices(U, T, th), lv)
    return SpectrumReport(cs, cd, classes)
