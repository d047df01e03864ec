"""The class-by-class spectrum pipeline that the shape-group pass of
``metastab.prefactors`` and ``metastab.spectra`` replaced, kept verbatim as
the oracle of the differential spectrum test: per class, Upsilon and T,
the graded core with its Cholesky check, and the Schur recursion with one
``eigh`` per level."""

import math
from typing import NamedTuple

import numpy as np

from metastab.errors import InputDataError, InvariantViolation

_SQRT_PI = math.sqrt(math.pi)


def h_phi(cs, cd, mid, alpha):
    """Hessian weight of a minimum of the extended set of ``alpha``.

    The weight aggregates every minimum at the same level in the relevant
    component: the minima tied at the bottom of E(mid) for a member, or of
    the enclosing component Ehat for the reference minimum.
    """
    if mid in alpha.members:
        group = cd.labelling.E[mid].ties
    elif mid == alpha.mhat:
        group = alpha.Ehat.ties
    else:
        raise InputDataError(f"{mid} belongs neither to the class nor is its "
                             "reference minimum")
    return math.fsum(cs.minimum(x).det_hess ** -0.5 for x in group) ** -0.5


class ClassMatrices(NamedTuple):
    upsilon: np.ndarray   # rows: saddles of the class, columns: uhat
    T: np.ndarray         # uhat x members, orthonormal columns
    theta0: object        # unit kernel direction on the type II block, or None


def build_class_matrices(cs, cd, alpha):
    """Interaction matrix Upsilon and completion T of a class, from one set
    of weights.

    Upsilon has one row per saddle of the class, in the order of
    ``alpha.saddles`` (sorted by id), and columns over ``alpha.uhat``. A row
    has entries +-pi^(-1/2)|lambda_1(s)|^(1/2) h(m_i)/h(s) at its endpoints,
    with h(s) = |det Hess(s)|^(1/4); the negative entry at the far endpoint
    is dropped when that endpoint is outside Uhat (boundary rows of a type I
    class).

    T maps members to the extended set orthonormally. It is the identity on
    type I members. On the type II block (type II members plus the reference
    minimum) its columns span the orthogonal complement of theta0, the unit
    vector proportional to 1/h_phi, which spans the kernel of Upsilon there.
    The complement is realized by a Householder reflection sending e_1 to
    theta0, taking its remaining columns; any other orthonormal completion
    conjugates the core without moving its spectrum.
    """
    uhat = alpha.uhat
    w = {mid: h_phi(cs, cd, mid, alpha) for mid in uhat}
    upos = {mid: i for i, mid in enumerate(uhat)}
    U = np.zeros((len(alpha.saddles), len(uhat)))
    for i, r in enumerate(alpha.saddles):
        s = cs.saddle(r.sid)
        coeff = math.sqrt(s.neg_eig) / (_SQRT_PI * s.det_hess ** 0.25)
        U[i, upos[r.m1]] = coeff * w[r.m1]
        if r.m2 in upos:
            U[i, upos[r.m2]] = -coeff * w[r.m2]

    members = alpha.member_order
    T = np.zeros((len(uhat), len(members)))
    blk = alpha.uhat_blocks[-1] if alpha.type2 else ()  # type II, then mhat
    for j, mid in enumerate(members):
        if mid not in blk:
            T[upos[mid], j] = 1.0
    if not alpha.type2:
        return ClassMatrices(U, T, None)
    theta0 = np.array([1.0 / w[mid] for mid in blk])
    theta0 /= np.linalg.norm(theta0)
    b = len(blk)
    v = -theta0.copy()
    v[0] += 1.0
    nv2 = v @ v
    if nv2 < 1e-26:
        comp = np.eye(b)[:, 1:]
    else:
        comp = (np.eye(b) - np.outer(2.0 * v / nv2, v))[:, 1:]
    rows = [upos[mid] for mid in blk]
    cols = [members.index(mid) for mid in alpha.member_blocks[-1]]
    T[np.ix_(rows, cols)] = comp
    return ClassMatrices(U, T, theta0)


class GradedCore(NamedTuple):
    """Symmetric positive definite core with its barrier block structure.

    ``blocks`` lists (size, barrier) pairs with barriers strictly increasing;
    the matrix rows/columns follow the same order.
    """
    core: np.ndarray
    blocks: tuple          # ((r_1, S_1), ..., (r_p, S_p)), S ascending

    @property
    def p(self):
        return len(self.blocks)


def build_graded_core(alpha, matrices):
    """Core matrix (Upsilon T)'(Upsilon T) over the members of a class,
    ordered by ascending barrier."""
    A = matrices.upsilon @ matrices.T
    core = A.T @ A
    core = 0.5 * (core + core.T)
    blocks = tuple(
        (len(b), S) for b, S in zip(alpha.member_blocks, alpha.block_S))
    try:
        np.linalg.cholesky(core)
    except np.linalg.LinAlgError:
        raise InvariantViolation(
            f"core of class {alpha.members} is not positive definite "
            "(degenerate or badly conditioned Hessian data)") from None
    return GradedCore(core, blocks)


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


def class_spectra(cs, cd):
    """(matrices, core, levels) of each non-ground class, in the order of
    ``cd.classes``: the loop of the former ``full_spectrum``."""
    out = []
    for c in cd.classes[1:]:
        m = build_class_matrices(cs, cd, c)
        g = build_graded_core(c, m)
        out.append((m, g, tuple(class_spectrum(g))))
    return out
