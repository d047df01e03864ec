"""Leading-order interaction matrices of the equivalence classes, built one
shape group at a time.

Classes with the same number of saddle rows, the same type and the same
barrier block sizes (hence the same q, p and |Uhat|) form a shape group, and
the builders here take a whole group; a single class is a group of one. For
a class with members U, extended set Uhat (members plus the reference
minimum when the class is type II), and saddle set V, they build

* the Hessian weights of Uhat (``h_phi``), once per class, and from them
  together the interaction matrix Upsilon (rows V, columns Uhat) and the
  orthonormal basis change T absorbing the type II quasimode mixing
  (``build_class_matrices``), stacked over the group as (G, |V|, |Uhat|)
  and (G, |Uhat|, q) arrays filled in one pass over its classes, and
* the graded core (Upsilon T)'(Upsilon T), whose blocks follow the barrier
  partition, smallest barrier first (``build_graded_core``), for the whole
  group with one stacked matmul and one stacked Cholesky check.

A stacked NumPy call makes, per class, the call the class-by-class pipeline
made, so every class gets the same matrices bit for bit. Hessian data at the
ends of the float range that overflows Upsilon or a core is bad input, and
is rejected before any LAPACK call. No exponential factor is ever evaluated
here; the barrier scales stay symbolic in the block metadata.
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
    """The matrices of a shape group, each field stacked along a first axis
    over its classes, or of one class: ``full_spectrum`` keeps per-class
    views into the group's arrays."""
    upsilon: np.ndarray   # rows: saddles of the class, columns: uhat
    T: np.ndarray         # uhat x members, orthonormal columns
    theta0: object        # unit kernel direction on the type II block, or None


def _first_bad(classes, finite):
    """The members of the first class whose entries are not all finite."""
    return classes[int(np.argmin(finite.reshape(len(classes), -1).all(1)))
                   ].members


def build_class_matrices(cs, cd, classes):
    """Interaction matrices Upsilon and completions T of a shape group,
    each class from one set of weights; every field stacks the group's
    classes along a first axis.

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
    first = classes[0]
    G, r, q = len(classes), len(first.saddles), first.q
    uhat_len = q + first.type2     # uhat is the member order, then mhat
    weights, coeffs, cols1, cols2 = [], [], [], []
    saddle, sqrt = cs.saddle, math.sqrt
    for alpha in classes:
        uhat = alpha.uhat
        upos = {mid: i for i, mid in enumerate(uhat)}
        weights += [h_phi(cs, cd, mid, alpha) for mid in uhat]
        for sid, m1, m2, _ in alpha.saddles:
            s = saddle(sid)
            coeffs.append(sqrt(s.neg_eig) / (_SQRT_PI * s.det_hess ** 0.25))
            cols1.append(upos[m1])
            cols2.append(upos.get(m2, -1))   # -1: outside Uhat, dropped
    w = np.array(weights).reshape(G, uhat_len)
    coeff = np.array(coeffs).reshape(G, r)
    g = np.arange(G)[:, None]
    i = np.arange(r)
    j1 = np.array(cols1, dtype=np.intp).reshape(G, r)
    j2 = np.array(cols2, dtype=np.intp).reshape(G, r)
    U = np.zeros((G, r, uhat_len))
    with np.errstate(over="ignore", invalid="ignore"):
        U[g, i, j1] = coeff * w[g, j1]
        gi, ii = np.nonzero(j2 >= 0)
        U[gi, ii, j2[gi, ii]] = -coeff[gi, ii] * w[gi, j2[gi, ii]]
    finite = np.isfinite(U)
    if not finite.all():
        raise InputDataError(
            f"Upsilon of class {_first_bad(classes, finite)} is beyond float "
            "range (Hessian data)")

    # member columns outside the type II block map to themselves
    k = q - len(first.member_blocks[-1]) if first.type2 else q
    T = np.zeros((G, uhat_len, q))
    T[:, np.arange(k), np.arange(k)] = 1.0
    if not first.type2:
        return ClassMatrices(U, T, None)
    theta0 = 1.0 / w[:, k:]
    # (1, b) @ (b, 1) per class is the vector dot product np.linalg.norm
    # takes, so each theta0 is normalized as on its own
    theta0 /= np.sqrt(theta0[:, None, :] @ theta0[:, :, None])[:, 0]
    b = uhat_len - k
    v = -theta0
    v[:, 0] += 1.0
    nv2 = (v[:, None, :] @ v[:, :, None])[:, 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        H = np.eye(b) - (2.0 * v / nv2)[:, :, None] * v[:, None, :]
    H[nv2[:, 0] < 1e-26] = np.eye(b)
    T[:, k:, k:] = H[:, :, 1:]
    return ClassMatrices(U, T, theta0)


class GradedCore(NamedTuple):
    """Symmetric positive definite cores of a shape group with their barrier
    block structure.

    ``core`` stacks the group's cores, (G, q, q). ``blocks`` lists
    (size, barriers) pairs, one per level, smallest barrier first; the sizes
    are shared by the group, and ``barriers`` holds each class's barrier of
    that level, strictly increasing over the blocks for every class. The
    matrix rows/columns follow the block order.
    """
    core: np.ndarray
    blocks: tuple          # ((r_1, S_1), ..., (r_p, S_p)), S_k one per class

    @property
    def p(self):
        return len(self.blocks)


def build_graded_core(classes, matrices):
    """Cores (Upsilon T)'(Upsilon T) of a shape group over the members of
    each class, ordered by ascending barrier."""
    with np.errstate(over="ignore", invalid="ignore"):
        A = matrices.upsilon @ matrices.T
        core = np.swapaxes(A, 1, 2) @ A
        core = 0.5 * (core + np.swapaxes(core, 1, 2))
    finite = np.isfinite(core)
    if not finite.all():
        raise InputDataError(
            f"core of class {_first_bad(classes, finite)} is beyond float "
            "range (Hessian data)")
    try:
        np.linalg.cholesky(core)
    except np.linalg.LinAlgError:
        # the stacked call names no matrix; find the first that fails
        for alpha, c in zip(classes, core):
            try:
                np.linalg.cholesky(c)
            except np.linalg.LinAlgError:
                raise InvariantViolation(
                    f"core of class {alpha.members} is not positive definite "
                    "(degenerate or badly conditioned Hessian data)") from None
        raise
    return GradedCore(core, tuple(
        (len(b), tuple(alpha.block_S[k] for alpha in classes))
        for k, b in enumerate(classes[0].member_blocks)))
