"""Class spectra from the graded cores and their Cholesky factors, and
assembly of the predicted spectrum.

Each equivalence class contributes one eigenvalue group per barrier level:
level k pairs the class's k-th barrier ``block_S[k]`` with the eigenvalues
of J(R^(k-1)(core)), where J extracts the leading block, of the size of the
class's ``member_blocks[k]``, and R forms the Schur complement onto the
remaining blocks. Level 0 reads the core's leading block itself. For the
deeper levels, write the core as L L' with L its lower Cholesky factor
(``prefactors``): by the quotient property of Schur complements (Crabtree
and Haynsworth, Proc. AMS 22, 1969), R^(k-1)(core) = L[s:, s:] L[s:, s:]'
for the offset s of block k, and as L is lower triangular, level k's matrix
is L_kk L_kk', from the k-th diagonal block of the one factor. A level holds
its eigenvalues only; its barrier and size are read from the class. The
global minimum's class contributes the exact eigenvalue 0. An eigenvalue
zeta^2 at barrier S predicts lambda(h) = h * zeta^2 * exp(-2S/h).

``full_spectrum`` takes the classes one shape group at a time (see
``prefactors``): each level of a group is one stacked ``eigh`` with one
residual check. The report keeps Upsilon, theta0 and the level eigenvalues
as columns of views aligned with ``cd.classes``.
"""

import math
from typing import NamedTuple

import numpy as np

from .errors import InputDataError, InvariantViolation
from .prefactors import build_class_matrices, build_graded_core

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


def class_spectrum(classes, cores, factors):
    """For each class of a shape group, the eigenvalues zeta2 of each
    barrier level, ascending, smallest barrier first: level 0 holds those
    of the cores' leading block, level k >= 1 those of L_kk L_kk' for the
    k-th diagonal block L_kk of the Cholesky factors ``factors``, that is
    of J(R^(k-1)(core)); a level's size and barrier are the k-th of the
    class's ``member_blocks`` and ``block_S``."""
    levels = []
    end = 0
    for k, block in enumerate(classes[0].member_blocks):
        start, end = end, end + len(block)
        if k == 0:
            M = cores[:, :end, :end]
        else:
            L = factors[:, start:end, start:end]
            M = L @ np.swapaxes(L, 1, 2)
        w = sym_eig(M)
        if np.any(w[:, 0] <= 0):
            raise InvariantViolation(
                "nonpositive leading eigenvalue in the Schur recursion")
        # the report prints pi * zeta2 next to zeta2, and a null there
        # would read as a result: Hessian data that overflows it is bad input
        with np.errstate(over="ignore", invalid="ignore"):
            big = ~np.isfinite(math.pi * w[:, -1])
        if big.any():
            S = classes[int(np.argmax(big))].block_S[k]
            raise InputDataError(
                f"pi * zeta2 at S = {S} is beyond float range")
        levels.append(w)
    return list(zip(*levels))


class SpectrumEntry(NamedTuple):
    lam: float          # h * zeta2 * exp(-2S/h); 0.0 for the ground state
    log_lam: float      # stable log of lam (-inf for the ground state)
    S: float
    zeta2: float
    members: tuple


class SpectrumReport:
    """Predicted low-lying spectrum of the landscape.

    Three columns aligned with ``cd.classes`` (ground class first) hold
    each class's Upsilon, its theta0 (None unless type II) and ``levels``,
    its zeta2 array per barrier level at ``block_S`` (empty for the ground
    class); ``cs`` is the structure they came from. ``evaluate(h)`` turns
    the (S, zeta2) pairs into eigenvalues at a concrete h, sorted
    ascending; the ground state is exactly 0.
    """

    def __init__(self, cs, cd, upsilon, theta0, levels):
        self.cs = cs
        self.cd = cd
        self.upsilon = upsilon
        self.theta0 = theta0
        self.levels = levels
        n0 = sum(len(c.members) for c in cd.classes)
        count = 1 + sum(zeta2.size for lv in levels for zeta2 in lv)
        if count != n0:
            raise InvariantViolation(
                f"spectrum carries {count} values for {n0} minima")
        self.n0 = n0

    def evaluate(self, h):
        if not h > 0:
            raise InputDataError("h must be positive")
        out = [SpectrumEntry(0.0, -math.inf, math.inf, 0.0,
                             self.cd.ground.members)]
        for alpha, lv in zip(self.cd.classes, self.levels):
            for S, zeta2 in zip(alpha.block_S, lv):
                for z in zeta2.tolist():
                    hz = h * z
                    if not 0.0 < hz < math.inf:
                        raise InputDataError(
                            f"h * zeta2 = {hz} at h = {h} is out of range")
                    log_lam = math.log(hz) - 2.0 * S / h
                    if not math.isfinite(log_lam):
                        raise InputDataError(
                            f"log lambda at h = {h} is out of range")
                    lam = hz * math.exp(-2.0 * S / h)
                    out.append(SpectrumEntry(
                        lam, log_lam, S, z, alpha.members))
        out.sort(key=lambda e: e.log_lam)
        return out


def full_spectrum(cs, cd):
    """Matrices and spectra of every class plus the exact zero of the ground
    class. The non-ground classes are taken one shape group at a time, in
    the order of each group's first class; each class's Upsilon, T, core
    and factor are built once, and the report keeps views into its group's
    arrays."""
    groups = {}
    for i, c in enumerate(cd.classes[1:], start=1):
        key = len(c.cells), c.type2, tuple(map(len, c.member_blocks))
        groups.setdefault(key, []).append(i)
    n = len(cd.classes)
    upsilon, theta0, levels = [None] * n, [None] * n, [()] * n
    for at in groups.values():
        group = [cd.classes[i] for i in at]
        U, T, th = build_class_matrices(cs, cd, group)
        lv = class_spectrum(group, *build_graded_core(group, U, T))
        if th is None:
            th = [None] * len(at)
        for i, u, t, zeta2 in zip(at, U, th, lv):
            upsilon[i], theta0[i], levels[i] = u, t, zeta2
    return SpectrumReport(cs, cd, upsilon, theta0, levels)
