"""Leading-order interaction matrices of the equivalence classes, built one
shape group at a time.

Classes with the same number of saddle rows, the same type and the same
barrier block sizes (hence the same q, p and |Uhat|) form a shape group, and
the builders here take a whole group; a single class is a group of one. For
a class with members U, extended set Uhat (members plus the reference
minimum when the class is type II), and saddle set V, they build

* the Hessian weights of Uhat (``h_phi``) off the merge-tree nodes E(m) of
  the members and Ehat of the reference minimum, and from them together the
  interaction matrix Upsilon (rows V, columns Uhat), the orthonormal basis
  change T absorbing the type II quasimode mixing and its kernel direction
  theta0 (``build_class_matrices``), as plain arrays stacked over the group
  and filled in one pass over its classes, and
* the cores (Upsilon T)'(Upsilon T), stacked as (G, q, q), for the whole
  group with one stacked matmul, and their Cholesky factors L with one
  stacked ``cholesky``, which is also the positive-definiteness check
  (``build_graded_core``); ``spectra`` reads the deeper barrier levels off
  the diagonal blocks of L. A core's rows follow ``member_order``; its
  block sizes and barriers are the class's ``member_blocks`` and
  ``block_S``, smallest barrier first, and are not copied.

A stacked NumPy call makes, per class, the call the class-by-class pipeline
made, so every class gets the same matrices bit for bit. Hessian data at the
ends of the float range that overflows Upsilon or a core is bad input, and
is rejected before any LAPACK call; so is an Upsilon entry so small that its
square underflows and leaves the core singular. No exponential factor is
ever evaluated here; the barrier scales stay symbolic in ``block_S``.
"""

import math

import numpy as np

from .errors import InputDataError, InvariantViolation
from .topology import merge_tree

_SQRT_PI = math.sqrt(math.pi)
_SQRT_TINY = math.sqrt(np.finfo(float).tiny)
# Most entries of Upsilon, T and the core of a shape group together: the
# largest ring at the budget, 2365 equal minima (a 2364-member class), peaks
# at 387 MB RSS in ``analyze --h 0.1`` (x86-64 Linux, NumPy 2.4)
_MAX_ENTRIES = 2 ** 24


def h_phi(cs, node):
    """Hessian weight of the minima tied at the bottom of a merge-tree node.

    For a member m of a class the node is E(m), for the class's reference
    minimum it is Ehat: the weight aggregates every minimum at the same
    level in that component. The merge tree keeps the exact partial sums of
    det_hess^-1/2 over those minima, so the correctly rounded sum of the
    terms is one ``fsum`` of a few partials.
    """
    return math.fsum(merge_tree(cs).partials[node]) ** -0.5


def _first_bad(classes, finite):
    """The members of the first class whose entries are not all finite."""
    return classes[int(np.argmin(finite.reshape(len(classes), -1).all(1)))
                   ].members


def build_class_matrices(cs, cd, classes):
    """Interaction matrices Upsilon, completions T and kernel directions
    theta0 of a shape group, each class from one set of weights, as the
    triple ``(upsilon, T, theta0)``: Upsilon is (G, |V|, |Uhat|), T is
    (G, |Uhat|, q) and theta0 is (G, b) over the b entries of the type II
    block, or None for a type I group.

    Upsilon has one row per saddle row of the class, in the order of
    ``alpha.cells`` (sorted by saddle), and columns over ``alpha.uhat``. A row
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

    A group whose Upsilon, T and cores hold more than ``_MAX_ENTRIES``
    entries together is bad input, rejected before any array is built.
    """
    first = classes[0]
    G, r, q = len(classes), len(first.cells), first.q
    uhat_len = q + first.type2     # uhat is the member order, then mhat
    entries = G * (r * uhat_len + uhat_len * q + q * q)
    if entries > _MAX_ENTRIES:
        raise InputDataError(
            f"{G} class(es) of {q} members need {entries} dense matrix "
            f"entries, over the budget of {_MAX_ENTRIES}; the level "
            "tolerance (--eps-level) decides which minima tie into one class")
    weights, coeffs, cols1, cols2 = [], [], [], []
    neg, det, sqrt = cs.sad_neg_eig, cs.sad_det_hess, math.sqrt
    E = cd.labelling.E
    for alpha in classes:
        weights += [h_phi(cs, E[mid]) for mid in alpha.member_order]
        if alpha.type2:
            weights.append(h_phi(cs, alpha.Ehat))
        for s, j1, j2 in alpha.cells:
            coeffs.append(sqrt(neg[s]) / (_SQRT_PI * det[s] ** 0.25))
            cols1.append(j1)
            cols2.append(j2)     # -1: outside Uhat, dropped
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
        return U, T, None
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
    return U, T, theta0


def build_graded_core(classes, upsilon, T):
    """Cores (Upsilon T)'(Upsilon T) of a shape group from its stacked
    Upsilon and T, and their lower Cholesky factors, as the pair
    ``(core, L)`` of (G, q, q) stacks; L is None for a group with one
    barrier level, which reads no factor. Rows and columns follow each
    class's ``member_order``, so the barrier blocks come smallest barrier
    first with the sizes of its ``member_blocks``."""
    with np.errstate(over="ignore", invalid="ignore"):
        A = upsilon @ T
        core = np.swapaxes(A, 1, 2) @ A
        core = 0.5 * (core + np.swapaxes(core, 1, 2))
    finite = np.isfinite(core)
    if not finite.all():
        raise InputDataError(
            f"core of class {_first_bad(classes, finite)} is beyond float "
            "range (Hessian data)")
    try:
        L = np.linalg.cholesky(core)
    except np.linalg.LinAlgError:
        # the stacked call names no matrix; find the first that fails
        for alpha, c, U in zip(classes, core, upsilon):
            try:
                np.linalg.cholesky(c)
            except np.linalg.LinAlgError:
                # an Upsilon entry whose square is below the smallest normal
                # double vanishes in the core: the Hessian data are at fault
                a = abs(U)
                if ((a > 0) & (a < _SQRT_TINY)).any():
                    raise InputDataError(
                        f"core of class {alpha.members} underflows double "
                        "precision (Hessian data)") from None
                raise InvariantViolation(
                    f"core of class {alpha.members} is not positive definite "
                    "(degenerate or badly conditioned Hessian data)") from None
        raise
    # a one-level group reads no factor, and one kept alive through the
    # eigen solve of a large core slows that solve measurably
    return core, L if len(classes[0].member_blocks) > 1 else None
