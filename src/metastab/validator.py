"""Direct spectral check of the predictions on 1D sampled potentials.

The Witten operator -h^2 d^2/dx^2 + phi'^2 - h phi'' is discretized in
factored form A = C'C, where C is the (n+1) x n bidiagonal discretization of
the conjugated derivative h e^(-phi/h) d/dx e^(phi/h) on interval midpoints.
Working with the factor instead of assembling A is what makes eigenvalues of
size 1e-13 and below resolvable at all: the small singular values of a
bidiagonal matrix are determined to relative accuracy by its entries. The
discrete Gibbs vector e^(-phi/h) is annihilated exactly by the interior rows
of C, so the bottom of the spectrum is clean.

The n0 small eigenvalues are not sought on the whole grid. Written for
g = e^(phi/h) u, C'C is the pencil of a birth-death chain, and eliminating
every node but the n0 wells is exact (``_reduce``): the reduction is a
chain on the wells whose conductances and masses are power series in the
eigenvalue sought, with nonnegative terms built from cumulative sums of
positive numbers. Each eigenvalue is the fixed point of the reduction's own
eigenvalue of that index (``_wells_eigenvalues``), found by bisection on the
Golub-Kahan form of the reduction's n0-column factor, a zero-diagonal
tridiagonal that bisection counts to high relative accuracy (Demmel & Kahan
1990), so each eigenvalue comes to its own precision no matter how many
orders of magnitude separate it from the norm.

The bisection (LAPACK ``stebz``) and the spline solve (``gtsv``) are SciPy's
compiled routines, called with the arguments of SciPy's public wrappers but
loaded without importing the ``scipy.linalg`` package (see ``_lapack``).
``compare`` first checks the walls of the samples at every h, then builds
and checks the coarse and the fine grid of every h, reducing each grid onto
its wells as soon as it is built, so an h the samples cannot support is
rejected before any bisection runs, and at most one grid's factor is alive
at a time. It then bisects the reductions in rounds, each round one
``small_eigenvalues`` call for the nonzero eigenvalues alone, whose
problems ``stebz`` bisects one after the other on the calling thread.
"""

import math
from typing import NamedTuple

import numpy as np

from ._lapack import check_info, flapack
from .errors import InputDataError
from .landscape import SampledPotential

_C_TOL = 3.0             # PASS needs a final |ratio - 1| <= _C_TOL * h
_RICHARDSON_TOL = 0.05   # grid n vs 2n drift beyond this is INCONCLUSIVE
_MAX_EXP_ARG = 150.0     # per-cell exponent guard; beyond this the grid is
                         # far too coarse for the requested h anyway
# Most bias exp(-2 mu/h) the walls of the samples may put on the eigenvalues,
# mu their height above the top saddle (``_energy_window``)
_WALL_BIAS = 1e-4
# Most points in a grid ``compare`` builds: one h whose fine grid is at the
# budget peaks at 360 MB RSS in ``validate``, in the reduction of the fine
# grid (x86-64 Linux, CPython 3.11, NumPy 2.4)
_MAX_GRID = 2 ** 22
# Largest entry of the factor C: the operator C'C's entries are sums of
# squares of C's entries, and each square stays at most half the largest
# float, so that the grid represents the operator at all
_MAX_ENTRY = math.sqrt(np.finfo(float).max / 2)
# Most series terms of a grid's reduction onto its wells: the terms fall
# like r^k for r about the ratio of eigenvalue n0 - 1 to eigenvalue n0, so
# this resolves r up to (eps/4)^(1/24), about 0.21
_MAX_TERMS = 24


def eigh_tridiagonal(problems):
    """Eigenvalues ``lo..hi`` (0-based, ascending) of each symmetric
    tridiagonal problem ``(d, e, lo, hi, tol)`` (diagonal ``d``,
    off-diagonal ``e``), by LAPACK bisection ``stebz`` to absolute tolerance
    ``tol``; one array per problem, in the order of ``problems``.

    Each is ``scipy.linalg.eigh_tridiagonal(d, e, eigvals_only=True,
    select="i", select_range=(lo, hi), tol=tol, lapack_driver="stebz")``:
    the same f2py wrapper called with the same arguments and checks, loaded
    without the ``scipy.linalg`` package (see ``_lapack``). The problems
    run one after the other on the calling thread, and the first that fails
    raises before the next runs. It stays a module attribute because
    ``bench/spans.py`` times the bisection by wrapping this name."""
    stebz = flapack().dstebz
    results = []
    for d, e, lo, hi, tol in problems:
        d = np.asarray_chkfinite(d, dtype=float)
        e = np.asarray_chkfinite(e, dtype=float)
        if d.ndim != 1 or e.shape != (d.size - 1,):
            raise ValueError(f"d {d.shape} must have one more element than "
                             f"e {e.shape}")
        m, w, _, _, info = stebz(d, e, 2, 0.0, 1.0, lo + 1, hi + 1, tol, "E")
        check_info(info, "stebz")
        results.append(w[:m])
    return results


def _cubic_spline(x, y):
    """Not-a-knot cubic spline through the samples, as a vectorized phi(x).

    Bit for bit ``scipy.interpolate.CubicSpline(x, y)`` for more than three
    samples: the same banded system with its two not-a-knot end rows, the
    same LAPACK ``gtsv`` solve, and the same Hermite coefficients and
    evaluation order, without importing ``scipy.interpolate`` or
    ``scipy.linalg``. Queries outside the samples extrapolate the end
    pieces.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or x.shape != y.shape:
        raise InputDataError("samples must be 1D arrays of equal length")
    if x.size < 4:
        raise InputDataError("a spline needs more than 3 samples")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise InputDataError("samples must be finite")
    dx = np.diff(x)
    if np.any(dx <= 0):
        raise InputDataError("sample positions must be strictly increasing")
    slope = np.diff(y) / dx
    A = np.zeros((3, x.size))            # banded: upper, diagonal, lower
    A[1, 1:-1] = 2 * (dx[:-1] + dx[1:])
    A[0, 2:] = dx[:-1]
    A[-1, :-2] = dx[1:]
    b = np.empty(x.size)
    b[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
    d = x[2] - x[0]
    A[1, 0] = dx[1]
    A[0, 1] = d
    b[0] = ((dx[0] + 2 * d) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / d
    d = x[-1] - x[-3]
    A[1, -1] = dx[-2]
    A[-1, -2] = d
    b[-1] = (dx[-1] ** 2 * slope[-2]
             + (2 * d + dx[-1]) * dx[-2] * slope[-1]) / d
    # overwrites A and b, as scipy.linalg.solve_banded((1, 1), A, b,
    # overwrite_ab=True, overwrite_b=True, check_finite=False) does
    _, _, _, s, info = flapack().dgtsv(A[2, :-1], A[1], A[0, 1:], b,
                                       1, 1, 1, 1)
    if info > 0:
        raise InputDataError("spline system is singular")
    check_info(info, "gtsv")
    if not np.all(np.isfinite(s)):
        raise InputDataError("spline slopes overflow double precision")
    t = (s[:-1] + s[1:] - 2 * slope) / dx
    c0, c1, c2, c3 = t / dx, (slope - s[:-1]) / dx - t, s[:-1], y[:-1]

    def phi(q):
        q = np.asarray(q, dtype=float)
        i = np.clip(np.searchsorted(x, q, "right") - 1, 0, x.size - 2)
        u = q - x[i]
        # the summation order of SciPy's piecewise-polynomial evaluation
        return (((0.0 + c3[i]) + c2[i] * u) + c1[i] * (u * u)
                + c0[i] * ((u * u) * u))
    return phi


def default_grid(h, a, b):
    return max(4000, int(math.ceil(40.0 * (b - a) / math.sqrt(h))))


def _energy_window(p, cs, h):
    """Default solve domain: cover the critical points and extend only until
    the potential clears the top saddle by a safety margin.

    Walls far above the top barrier would be harmless analytically, but
    every decade of extra wall height stretches the spread of the computed
    spectrum, so the window is kept as low as accuracy allows: the
    truncation bias is O(exp(-2 margin/h)), far below the h-sized error
    this check resolves.

    Samples that never clear the top saddle by that margin leave the window
    at their ends, whose walls then act as exits, with eigenvalues of their
    own (Helffer & Nier 2006) biased by about exp(-2 mu/h), mu the lower
    end's height above the top saddle. Such samples cannot judge the
    prediction: with saddles to check, mu below h/2 log(1/_WALL_BIAS) is
    bad input.
    """
    xs, phis = p.xs, p.phis
    top = max(cs.sad_phi) if cs.sad_phi else float(np.max(phis))
    target = top + max(0.5, 10.0 * h)
    wells = [cs.positions[m] for m in cs.min_ids]
    i = np.searchsorted(xs, min(wells))
    above = np.flatnonzero(phis[:i + 1] >= target)
    left = above[-1] if above.size else 0
    i = np.searchsorted(xs, max(wells))
    above = np.flatnonzero(phis[i:] >= target)
    right = i + above[0] if above.size else xs.size - 1
    need = 0.5 * h * math.log(1.0 / _WALL_BIAS)
    mu, side = min((phis[left] - top, "left"), (phis[right] - top, "right"))
    if cs.sad_phi and not mu >= need:
        raise InputDataError(
            f"at h={h:g} the samples end too low on the {side}: their end "
            f"is mu = {mu:.3g} above the top saddle at phi = {top:.6g}, and "
            f"checking the prediction needs mu >= {need:.3g} "
            f"({need / h:.2g}h), where the walls bias the eigenvalues by "
            f"exp(-2 mu/h) <= {_WALL_BIAS:g}; extend the samples on the "
            f"{side} until phi reaches {top + need:.6g}")
    return float(xs[left]), float(xs[right])


class DiscretizedWitten(NamedTuple):
    off: np.ndarray        # C[j, j], C[j + 1, j] interleaved, j = 0..n-1

    @property
    def n(self):
        return self.off.size // 2

    @property
    def acoef(self):       # C[j, j] entries, a strided view of ``off``
        return self.off[0::2]

    @property
    def bcoef(self):       # C[j + 1, j] entries, a strided view of ``off``
        return self.off[1::2]


def discretize(p, h, n, *, domain):
    """Factored finite-difference Witten operator on a uniform grid.

    ``p`` is a callable phi(x) evaluated on arrays of grid points, such as
    the spline ``compare`` builds from sampled data, and ``domain`` the
    solve interval ``(lo, hi)``. ``n`` counts interior points, the
    ``n + 2`` points of ``numpy.linspace(lo, hi, n + 2)`` without its ends;
    the ends are Dirichlet. Only the factor is returned: the points and the
    potential on them are dropped once the checks pass.
    """
    if not h > 0:
        raise InputDataError("h must be positive")
    if not callable(p):
        raise InputDataError("potential must be a callable phi(x)")
    lo, hi = domain
    if not hi > lo:
        raise InputDataError("empty domain")
    if n < 100:
        raise InputDataError("grid too coarse (need at least 100 points)")

    full = np.linspace(lo, hi, n + 2)
    dx = full[1] - full[0]
    mid = 0.5 * (full[:-1] + full[1:])
    phi = np.asarray(p(full), dtype=float)
    phim = np.asarray(p(mid), dtype=float)
    spread = float(np.max(phi) - np.min(phi))
    if 2.0 * spread / h > 600.0:
        raise InputDataError(
            f"potential range {spread:g} over the solve domain is too large "
            f"for h={h:g}: the small eigenvalues underflow double precision")

    up = (phi[1:] - phim) / h      # length n+1, exponent for the right node
    dn = (phi[:-1] - phim) / h     # exponent for the left node
    worst = max(np.max(np.abs(up)), np.max(np.abs(dn)))
    if worst > _MAX_EXP_ARG:
        raise InputDataError(
            f"grid resolves the potential too poorly at h={h:g} "
            f"(per-cell exponent {worst:.1f}); increase the grid size")
    scale = h / float(dx)          # a Python float: inf, not a warning
    dw = DiscretizedWitten(np.empty(2 * n))
    a, b = dw.acoef, dw.bcoef
    np.exp(up[:-1], out=a)
    a *= scale
    np.exp(dn[1:], out=b)
    b *= -scale
    if not max(a.max(), -b.min()) < _MAX_ENTRY:
        raise InputDataError(
            f"h={h:g} is too large for a grid of {n} points: the factor's "
            f"entries (h/dx = {scale:g}) overflow double precision when "
            f"squared")
    return dw


def small_eigenvalues(dws, first, last):
    """Eigenvalues ``first..last`` (0-based, ascending) of C'C for each
    discretized operator in the list ``dws``; one array per grid. ``first``
    and ``last`` are ints, or sequences with one entry per grid.

    They are the squared singular values of C, found by bisection on C's
    Golub-Kahan form: the tridiagonal of dimension 2n + 1 with a zero
    diagonal and C's entries interleaved off it (``DiscretizedWitten.off``
    itself). Its eigenvalues are +-sigma_i and one structural 0, so sigma_i
    is its eigenvalue n + 1 + i. Bisection counts the eigenvalues of a
    zero-diagonal tridiagonal to high relative accuracy whatever its
    entries (Demmel & Kahan 1990), and with a tiny tolerance it refines
    every eigenvalue to its own relative precision, which is what lets a
    1e-40 eigenvalue coexist with an operator norm of 1e4.

    A grid with an empty range, ``first > last``, is not bisected.
    """
    firsts = np.broadcast_to(first, len(dws)).tolist()
    lasts = np.broadcast_to(last, len(dws)).tolist()
    if any(f < 0 or l >= dw.n for dw, f, l in zip(dws, firsts, lasts)):
        raise InputDataError("requested eigenvalue index exceeds dimension")
    tiny = np.finfo(float).tiny
    problems = [(np.zeros(2 * dw.n + 1), dw.off, dw.n + 1 + f, dw.n + 1 + l,
                 tiny) for dw, f, l in zip(dws, firsts, lasts) if f <= l]
    found = iter(eigh_tridiagonal(problems) if problems else ())
    return [np.maximum(next(found), 0.0) ** 2 if f <= l else np.empty(0)
            for f, l in zip(firsts, lasts)]


def _cumsums(x, sizes):
    """Cumulative sums along the last axis of ``x``, in place, restarted at
    the start of each run of ``sizes`` entries, so that no run's sums carry
    the rounding of the runs before it; returns ``x``."""
    i = 0
    for k in sizes.tolist():
        np.cumsum(x[..., i:i + k], axis=-1, out=x[..., i:i + k])
        i += k
    return x


class WellReduction(NamedTuple):
    """A grid's C'C reduced onto the nodes of its n0 wells (``_reduce``)."""
    kappa: np.ndarray      # n0 + 1 series conductances: wall, wells, wall
    off: np.ndarray        # (terms, n0 - 1): each term's coupling of wells
    mass: np.ndarray       # (terms, n0): each term's row sums
    bound: float           # upper bound of the n0 lowest eigenvalues
    exponent: int          # eigenvalues of C'C are these times 4^exponent


def _reduce(dw, wells, h):
    """Eliminate every grid node but the wells from C'C, exactly.

    ``wells`` are the columns of C, ascending, nearest each minimum. With
    u = w * g, w_0 = 1 and w_r = w_(r-1) (-b_(r-1) / a_r), every row of C
    is a difference, (Cu)_r = a_r w_r (g_r - g_(r-1)), so C'C is the pencil
    (K, diag pi) of a birth-death chain: K the path Laplacian with
    conductances c_r = (a_r w_r)^2, grounded at both Dirichlet ends, and
    pi = w^2. The running product perturbs each entry of C by a few
    rounding errors only; a power of two takes h/dx out of the squares, and
    another centres their range.

    The Schur complement of K - sigma diag(pi) onto the wells is
    S(sigma) = S0 - sigma M1 - sigma^2 M2 - ..., with S0 the path
    Laplacian of the series conductances kappa = 1 / (sum of 1/c) of each
    segment between wells (or a well and a wall), M1 = H' diag(pi) H plus
    the wells' own pi for the harmonic extension H, and
    M_(k+1) = (pi H)' (G pi)^(k-1) G (pi H) for the segments' Green's
    function G (Meyer 1989; Kron reduction). Every term is tridiagonal and
    entrywise nonnegative, built from cumulative sums of positive numbers;
    term k is stored times ``bound``^k, its coupling of neighbouring wells
    in ``off`` and its row sums in ``mass``. Terms are added until the next
    changes no conductance or mass by more than eps/4 at ``bound``, an
    upper bound of the n0 lowest eigenvalues; a grid that needs more than
    ``_MAX_TERMS`` is bad input, and so are two wells on one node. ``dw``
    is dropped once the chain is formed, so a factor the caller passes
    without keeping a name for it is freed then.
    """
    n0, n = wells.size, dw.n
    if np.any(np.diff(wells) == 0):
        raise InputDataError(
            f"grid too coarse at h={h:g}: two wells fall on one of its {n} "
            f"points; increase the grid size")
    a, b = dw.acoef, dw.bcoef
    w = np.empty(n)                  # sqrt(pi)
    w[0] = 1.0
    np.divide(b[:-1], a[1:], out=w[1:])
    np.negative(w[1:], out=w[1:])
    np.cumprod(w[1:], out=w[1:])
    exponent = math.frexp(a[0])[1]
    c = np.empty(n + 1)              # sqrt(c), then c, then 1/c
    np.ldexp(a, -exponent, out=c[:-1])
    c[:-1] *= w
    c[-1] = math.ldexp(-b[-1], -exponent) * w[-1]
    del a, b, dw
    shift = -(math.frexp(max(c.max(), w.max()))[1]
              + math.frexp(min(c.min(), w.min()))[1]) // 2
    for x in (c, w):
        np.ldexp(x, shift, out=x)
        np.square(x, out=x)
    rho = np.divide(1.0, c, out=c)

    # segment s runs from the node after well s - 1 (or the left end) to
    # the node before well s (or the right end): its edges are
    # ends[s] + 1 .. ends[s + 1], its interior nodes one fewer
    ends = np.concatenate(([-1], wells, [n]))
    sizes = np.diff(ends) - 1
    # the resistance from each node to its segment's left and right end
    left_of = _cumsums(rho.copy(), sizes + 1)
    total = left_of[ends[1:]]
    A = np.delete(left_of[:-1], wells)
    del left_of
    B = np.delete(_cumsums(rho[::-1], sizes[::-1] + 1)[-2::-1], wells)
    p, well_pi = np.delete(w, wells), w[wells]
    del rho, c, w
    # the harmonic functions, each from its small side: 1 at the well
    # left (right) of the segment, 0 at its other end
    T = np.repeat(total, sizes)
    basis = np.empty((2, T.size))
    left, right = basis
    np.divide(B, T, out=left)
    np.divide(A, T, out=right)
    np.subtract(1.0, right, out=left, where=A < B)
    np.subtract(1.0, left, out=right, where=B < A)
    del A, B
    kappa = 1.0 / total
    full = sizes > 0
    starts = (np.cumsum(sizes) - sizes)[full]
    last = starts + sizes[full] - 1                 # last node of a segment

    def term(pz, y):
        # per well, the sums of pi z y of its two functions over the
        # segments either side of it; per neighbouring pair, between them
        sums = np.zeros((3, n0 + 1))
        if starts.size:
            for row, u, v in ((0, 0, 0), (1, 1, 1), (2, 0, 1)):
                sums[row, full] = np.add.reduceat(pz[u] * y[v], starts)
        left_sq, right_sq, cross = sums
        off = cross[1:-1]
        mass = right_sq[:-1] + left_sq[1:]
        mass[1:] += off
        mass[:-1] += off
        return off, mass, left_sq, right_sq

    pz = p * basis
    pz[0, :sizes[0]] = 0.0                # no well at the walls
    pz[1, T.size - sizes[-1]:] = 0.0
    off, mass, left_sq, right_sq = term(pz, basis)
    mass += well_pi
    # a nonnegative 2 x 2 block [[x, y], [y, z]] dominates
    # (1 - y / sqrt(xz)) diag(x, z), so M1 dominates diag(low), and the
    # Gershgorin bound of S0 against diag(low) bounds every eigenvalue of
    # the pencil (S0, M1), and so the n0 lowest of C'C (Courant-Fischer)
    overlap = np.zeros(n0 + 1)
    np.divide(off, np.sqrt(left_sq[1:-1] * right_sq[1:-1]),
              out=overlap[1:-1], where=off > 0)
    low = (well_pi + (1.0 - overlap[:-1]) * right_sq[:-1]
           + (1.0 - overlap[1:]) * left_sq[1:])
    link = kappa[1:-1] / np.sqrt(low[1:] * low[:-1])
    rows = (kappa[:-1] + kappa[1:]) / low
    rows[1:] += link
    rows[:-1] += link
    bound = float(rows.max())
    # on a segment G(t, i) = T left_t right_i for i <= t and T right_t
    # left_i for i > t; ``right`` takes the factor bound * T from here on
    right *= T
    right *= bound
    del T
    after = np.empty(right.size)

    def green(pz, z):
        # z = bound * G pz, by two cumulative sums per function
        for g, y in zip(pz, z):
            _cumsums(np.multiply(right, g, out=y), sizes)
            y *= left
            np.multiply(left[1:], g[1:], out=after[:-1])
            after[last] = 0.0
            _cumsums(after[::-1], sizes[::-1])      # the nodes after t
            np.multiply(after, right, out=after)
            y += after
        return z

    offs, masses = [off], [mass]
    tiny = np.finfo(float).eps / 4
    z = np.empty_like(pz)
    for k in range(1, _MAX_TERMS + 1):
        if k % 2:                  # term 2q + 1 = Z_q' diag(pi) Z_(q+1)
            green(pz, z)
        else:                      # term 2q = Z_q' diag(pi) Z_q
            np.multiply(p, z, out=pz)
        off, mass, _, _ = term(pz, z)
        size = max(float(np.max(mass / masses[0])),
                   float(np.max(bound * off / kappa[1:-1])))
        if not size > tiny:        # NaN goes on to the bisection's check
            break
        offs.append(off)
        masses.append(mass)
    else:
        r = size ** (1.0 / _MAX_TERMS)
        raise InputDataError(
            f"at h={h:g} the {n0} lowest eigenvalues are not separated from "
            f"the rest of the spectrum: the terms of their reduction onto "
            f"the wells fall by a ratio of r = {r:.2g} from one to the next, "
            f"and {_MAX_TERMS} terms resolve a ratio up to "
            f"{tiny ** (1.0 / _MAX_TERMS):.2g}; choose a smaller h")
    return WellReduction(kappa, np.array(offs), np.array(masses), bound,
                         exponent)


def _frozen(red, sigma):
    """The reduction at the shift ``sigma`` as a factor of its own: the
    Schur complement S(sigma) = L(kappa~) - sigma diag(m~), with kappa~ =
    kappa + sigma M(sigma)'s couplings (walls unchanged) and m~ its row
    sums, is the pencil of a chain on the wells, whose factor has entries
    sqrt(kappa~_j / m~_j) and sqrt(kappa~_(j+1) / m~_j)."""
    t = sigma / red.bound
    off, mass = red.off[-1], red.mass[-1]
    for k in range(len(red.off) - 2, -1, -1):        # Horner in t
        off = off * t + red.off[k]
        mass = mass * t + red.mass[k]
    kappa = red.kappa.copy()
    kappa[1:-1] += sigma * off
    dw = DiscretizedWitten(np.empty(2 * mass.size))
    np.sqrt(kappa[:-1] / mass, out=dw.acoef)
    np.sqrt(kappa[1:] / mass, out=dw.bcoef)
    return dw


def _wells_eigenvalues(grids, first, last):
    """Eigenvalues ``first..last`` (0-based, ascending) of C'C for each
    grid reduced onto its wells (``_reduce``); one array per grid.

    Eigenvalue i is the fixed point sigma = mu_i(sigma) of eigenvalue i of
    the reduction frozen at sigma (``_frozen``): by Haynsworth's inertia
    formula S(sigma) has as many negative eigenvalues as C'C has below
    sigma, while sigma stays below the segments' own spectrum. The
    iteration contracts at about the ratio of eigenvalue n0 - 1 to
    eigenvalue n0. Round 0 bisects every grid at shift 0 for all its
    eigenvalues at once; each later round bisects one problem per
    eigenvalue still moving, at its own last value, until its steps stop
    shrinking or the next step, at the ratio of the last two, would move it
    by less than half a unit in its last place. Each round is one
    ``small_eigenvalues`` call.
    """
    sigma = small_eigenvalues([_frozen(g, 0.0) for g in grids], first, last)
    step = [s.copy() for s in sigma]               # the steps from shift 0
    moving = [(g, i) for g, s in enumerate(sigma) for i in range(s.size)]
    while moving:
        index = [first + i for _, i in moving]
        found = small_eigenvalues(
            [_frozen(grids[g], sigma[g][i]) for g, i in moving], index, index)
        still = []
        for (g, i), (w,) in zip(moving, found):
            d, last = abs(w - sigma[g][i]), step[g][i]
            sigma[g][i], step[g][i] = w, d
            # on while the steps shrink and the next, at the ratio of the
            # last two, would still move w by half a unit in its last place
            if d < last and d * d >= last * np.spacing(w) / 2:
                still.append((g, i))
        moving = still
    return [np.ldexp(s, 2 * g.exponent) for s, g in zip(sigma, grids)]


def _well_nodes(positions, domain, n):
    """The columns of C, the interior grid nodes, nearest ``positions``."""
    lo, hi = domain
    j = np.rint((positions - lo) * ((n + 1) / (hi - lo))).astype(int) - 1
    return np.clip(j, 0, n - 1)


class HStep(NamedTuple):
    h: float
    n: int
    numeric: tuple         # nonzero small eigenvalues, ascending
    predicted: tuple       # matching predictions
    ratios: tuple          # numeric / predicted (exp of log-difference)
    deviations: tuple      # |ratio - 1|
    richardson: tuple      # relative change from grid n to 2n


class ValidationReport(NamedTuple):
    steps: tuple           # HStep per h, descending h
    verdicts: tuple        # per nonzero eigenvalue: PASS / FAIL / INCONCLUSIVE
    n0: int


def compare(report, p, h_list, grid=None):
    """Validate a SpectrumReport against direct solves over a schedule of h.

    ``p`` holds the samples the report's structure was extracted from; the
    solve window comes from that structure's positions and top saddle.

    For each nonzero prediction the verdict is PASS when |ratio - 1| is
    nonincreasing along descending h and the final value is at most
    _C_TOL * h_final; a grid whose n vs 2n eigenvalues disagree by more than
    _RICHARDSON_TOL makes that eigenvalue INCONCLUSIVE instead. Samples
    whose walls sit too low for some h (``_energy_window``) and a fine grid
    over ``_MAX_GRID`` points are bad input, rejected before any grid is
    built; so is a grid whose n0 lowest eigenvalues its reduction
    onto the wells cannot separate from the rest, or that puts two wells on
    one node (``_reduce``), before any bisection.
    """
    hs = sorted(set(float(x) for x in h_list), reverse=True)
    if not hs or not all(h > 0 for h in hs):    # NaN is no positive h
        raise InputDataError("need positive h values")
    if not isinstance(p, SampledPotential):
        raise InputDataError("validation needs a sampled potential")
    cs = report.cs
    if not cs.positions:
        raise InputDataError("validation needs a structure extracted from "
                             "samples")
    n0 = report.n0
    k_nonzero = n0 - 1
    domains = [_energy_window(p, cs, h) for h in hs]
    ns = [default_grid(h, *d) if grid is None else grid
          for h, d in zip(hs, domains)]
    for h, n in zip(hs, ns):
        if 2 * n > _MAX_GRID:
            raise InputDataError(
                f"the fine grid at h={h:g} needs {2 * n} points, over the "
                f"budget of {_MAX_GRID} grid points")
    # the coarse and fine grid of every h, each reduced onto its wells as
    # soon as it is built and checked, and dropped; all of them before the
    # first bisection. One spline serves every grid (its gtsv solve comes
    # from the same LAPACK module as the bisection), and goes before the
    # first bisection.
    phi_fn = _cubic_spline(p.xs, p.phis)
    wells = np.sort([cs.positions[m] for m in cs.min_ids])
    predictions, grids = [], []
    for h, domain, n in zip(hs, domains, ns):
        predictions.append(report.evaluate(h)[1:])
        for m in (n, 2 * n):
            if k_nonzero:
                grids.append(_reduce(discretize(phi_fn, h, m, domain=domain),
                                     _well_nodes(wells, domain, m), h))
            else:                          # one well: the checks alone
                discretize(phi_fn, h, m, domain=domain)
    del phi_fn
    # the zero mode, eigenvalue 0, is not solved for
    nonzero = ([w.tolist() for w in _wells_eigenvalues(grids, 1, k_nonzero)]
               if k_nonzero else [[]] * (2 * len(hs)))
    steps = []
    for h, n, entries, coarse, fine in zip(hs, ns, predictions,
                                           nonzero[0::2], nonzero[1::2]):
        rich = tuple(
            abs(c - f) / f if f > 0 else math.inf
            for c, f in zip(coarse, fine))
        ratios, devs, preds = [], [], []
        for num, ent in zip(fine, entries):
            preds.append(ent.lam)
            if num <= 0:
                ratios.append(math.inf)
                devs.append(math.inf)
                continue
            logdiff = math.log(num) - ent.log_lam
            ratio = math.exp(logdiff) if abs(logdiff) < 700 else math.inf
            ratios.append(ratio)
            devs.append(abs(math.expm1(logdiff)) if abs(logdiff) < 700
                        else math.inf)
        steps.append(HStep(h, n, tuple(fine), tuple(preds), tuple(ratios),
                           tuple(devs), rich))
    verdicts = []
    for i in range(k_nonzero):
        if any(s.richardson[i] > _RICHARDSON_TOL for s in steps):
            verdicts.append("INCONCLUSIVE")
            continue
        devs = [s.deviations[i] for s in steps]
        monotone = all(b <= a for a, b in zip(devs, devs[1:]))
        ok = monotone and devs[-1] <= _C_TOL * hs[-1]
        verdicts.append("PASS" if ok else "FAIL")
    return ValidationReport(tuple(steps), tuple(verdicts), n0)
