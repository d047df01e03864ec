"""Leading-order interaction matrices attached to each equivalence class.

For a class with members U, extended set Uhat (members plus the reference
minimum when the class is type II), and saddle set V, this module builds

* the Hessian weights of Uhat (``h_phi``), once per class, and from them
  together the interaction matrix Upsilon (rows V, columns Uhat) and the
  orthonormal basis change T absorbing the type II quasimode mixing
  (``build_class_matrices``), and
* the graded core (Upsilon T)' (Upsilon T), whose blocks follow the barrier
  partition, smallest barrier first (``build_graded_core``).

No exponential factor is ever evaluated here; the barrier scales stay
symbolic in the block metadata.
"""

import math
from typing import NamedTuple

import numpy as np

from .errors import InputDataError, InvariantViolation

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
