"""Leading-order interaction matrices attached to each equivalence class.

For a class with members U, extended set Uhat (members plus the reference
minimum when the class is type II), and saddle set V, this module builds

* the Hessian weights (``h_phi``),
* the interaction matrix Upsilon (rows V, columns Uhat),
* the orthonormal basis change T absorbing the type II quasimode mixing, and
* the graded core (Upsilon T)' (Upsilon T), whose blocks follow the barrier
  partition, smallest barrier first.

No exponential factor is ever evaluated here; the barrier scales stay
symbolic in the block metadata.
"""

import math
from typing import NamedTuple

import numpy as np

from .errors import InputDataError, InvariantViolation

_SQRT_PI = math.sqrt(math.pi)


def h_phi(cs, cd, pid, alpha=None):
    """Hessian weight of a critical point.

    For a saddle this is |det Hess|^(1/4) and needs no class. For a minimum
    the weight aggregates every minimum at the same level in the relevant
    component (H(m) for a member, the equal-level set of the enclosing
    component for the reference minimum), so ``alpha`` must be given.
    """
    if cs.is_saddle(pid):
        return cs.saddle(pid).det_hess ** 0.25
    group = _hat_H(cd, pid, alpha)
    return math.fsum(cs.minimum(x).det_hess ** -0.5 for x in group) ** -0.5


def _hat_H(cd, pid, alpha):
    """The minima tied at the bottom of E(pid) for a member, or of the
    enclosing component Ehat for the reference minimum."""
    if alpha is None:
        raise InputDataError("minimum weights require a class")
    if pid in alpha.members:
        return cd.labelling.E[pid].ties
    if pid == alpha.mhat:
        return alpha.Ehat.ties
    raise InputDataError(f"{pid} belongs neither to the class nor is its "
                         "reference minimum")


def _weights(cs, cd, alpha):
    return {mid: h_phi(cs, cd, mid, alpha) for mid in alpha.uhat}


def build_upsilon(cs, cd, alpha):
    """Assemble the interaction matrix of a class.

    One row per saddle of the class, in the order of ``alpha.saddles``
    (sorted by id), columns over ``alpha.uhat``. A row has entries
    +-pi^(-1/2)|lambda_1(s)|^(1/2) h(m_i)/h(s) at its endpoints; the negative
    entry at the far endpoint is dropped when that endpoint is outside Uhat
    (boundary rows of a type I class).
    """
    w = _weights(cs, cd, alpha)
    col = {mid: i for i, mid in enumerate(alpha.uhat)}
    U = np.zeros((len(alpha.saddles), len(col)))
    for i, r in enumerate(alpha.saddles):
        s = cs.saddle(r.sid)
        coeff = math.sqrt(s.neg_eig) / (_SQRT_PI * s.det_hess ** 0.25)
        U[i, col[r.m1]] = coeff * w[r.m1]
        if r.m2 in col:
            U[i, col[r.m2]] = -coeff * w[r.m2]
    return U


def build_T(cs, cd, alpha):
    """Orthonormal map from members to the extended set, leading order.

    Identity on type I members. On the type II block (type II members plus
    the reference minimum) the columns span the orthogonal complement of
    theta0, the unit vector proportional to 1/h_phi, which spans the kernel
    of Upsilon there. The complement is realized by a Householder reflection
    sending e_1 to theta0, taking its remaining columns; any other
    orthonormal completion conjugates the core without moving its spectrum.

    Returns (T, theta0_ids, theta0).
    """
    uhat = alpha.uhat
    members = alpha.member_order
    upos = {mid: i for i, mid in enumerate(uhat)}
    T = np.zeros((len(uhat), len(members)))
    theta_ids, theta0 = (), None
    if not alpha.type2:
        for j, mid in enumerate(members):
            T[upos[mid], j] = 1.0
        return T, theta_ids, theta0
    blk = alpha.uhat_blocks[-1]          # type II members then mhat
    blk_members = alpha.member_blocks[-1]
    for j, mid in enumerate(members):
        if mid not in blk:
            T[upos[mid], j] = 1.0
    w = _weights(cs, cd, alpha)
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
    cols = [members.index(mid) for mid in blk_members]
    T[np.ix_(rows, cols)] = comp
    return T, tuple(blk), theta0


class ClassMatrices(NamedTuple):
    cls: object
    upsilon: np.ndarray   # rows: saddles of the class, columns: uhat
    T: np.ndarray         # uhat x members, orthonormal columns
    theta_ids: tuple      # type II block ids (empty for type I classes)
    theta0: object        # unit kernel direction on the block, or None


def build_class_matrices(cs, cd, alpha):
    U = build_upsilon(cs, cd, alpha)
    T, theta_ids, theta0 = build_T(cs, cd, alpha)
    return ClassMatrices(alpha, U, T, theta_ids, theta0)


class GradedCore(NamedTuple):
    """Symmetric positive definite core with its barrier block structure.

    ``blocks`` lists (size, barrier) pairs with barriers strictly increasing;
    the matrix rows/columns follow the same order.
    """
    core: np.ndarray
    blocks: tuple          # ((r_1, S_1), ..., (r_p, S_p)), S ascending
    cls: object

    @property
    def p(self):
        return len(self.blocks)


def build_graded_core(cs, cd, alpha, matrices=None):
    """Core matrix (Upsilon T)'(Upsilon T) over the members of a class,
    ordered by ascending barrier."""
    cm = matrices or build_class_matrices(cs, cd, alpha)
    A = cm.upsilon @ cm.T
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
    return GradedCore(core, blocks, alpha)
