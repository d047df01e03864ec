"""Direct spectral check of the predictions on 1D sampled potentials.

The Witten operator -h^2 d^2/dx^2 + phi'^2 - h phi'' is discretized in
factored form A = C'C, where C is the (n+1) x n bidiagonal discretization of
the conjugated derivative h e^(-phi/h) d/dx e^(phi/h) on interval midpoints.
Written for g = e^(phi/h) u, each row of C is a difference of g across an
edge, so C'C is the pencil (K, diag pi) of a birth-death chain: K the path
Laplacian with conductances c_r = (h/dx)^2 e^(-2 phi(mid_r)/h), grounded at
both Dirichlet ends, and pi_j = e^(-2 phi(x_j)/h). ``discretize`` builds
that chain straight from phi, one exponential per number, and never forms
C. The Gibbs vector, g = 1, meets only the two wall conductances, so the
bottom of the spectrum is clean.

The n0 small eigenvalues are not sought on the whole grid. Eliminating
every node but the n0 wells is exact (``_reduce``): the reduction is a
chain on the wells whose conductances and masses are power series in the
eigenvalue sought, with nonnegative terms built from cumulative sums of
positive numbers. By Haynsworth's inertia formula the chain at a shift
sigma has as many negative pivots as C'C has eigenvalues below sigma, and
its pivots need no subtraction but the shift's, so bisecting sigma on that
count (``eigh_tridiagonal``) finds each eigenvalue to its own relative
precision, no matter how many orders of magnitude separate it from the
norm.

Everything runs on NumPy: the not-a-knot spline of the samples is solved by
cyclic reduction (``_cubic_spline``), and the bisection is a few array
operations per step. ``compare`` first checks the walls of the samples at
every h, then builds and checks the coarse and the fine grid of every h,
reducing each grid onto its wells as soon as it is built, so an h the
samples cannot support is rejected before any bisection runs, and at most
one grid's chain is alive at a time. It then bisects every eigenvalue of
every reduction together, in one ``small_eigenvalues`` call, on the
calling thread.
"""

import math
from typing import NamedTuple

import numpy as np

from .errors import InputDataError, InvariantViolation
from .landscape import SampledPotential

_C_TOL = 3.0             # PASS needs a final |ratio - 1| <= _C_TOL * h
_RICHARDSON_TOL = 0.05   # grid n vs 2n drift beyond this is INCONCLUSIVE
_MAX_EXP_ARG = 150.0     # per-cell exponent guard; beyond this the grid is
                         # far too coarse for the requested h anyway
# Most bias exp(-2 mu/h) the walls of the samples may put on the eigenvalues,
# mu their height above the top saddle (``_energy_window``)
_WALL_BIAS = 1e-4
# Most points in a grid ``compare`` builds: one h whose fine grid is at the
# budget peaks at 322 MB RSS in ``validate``, in the reduction of the fine
# grid, which works in its chain's buffers (x86-64 Linux, CPython 3.11,
# NumPy 2.4)
_MAX_GRID = 2 ** 22
# Largest entry of the factor C, (h/dx) e^((phi(x_j) - phi(mid))/h) for a
# node and a midpoint beside it, which the chain's c / pi squares: the
# operator C'C's entries are sums of such squares, and each stays at most
# half the largest float, so that the grid represents the operator at all
_MAX_ENTRY = math.sqrt(np.finfo(float).max / 2)
# Most series terms of a grid's reduction onto its wells: the terms fall
# like r^k for r about the ratio of eigenvalue n0 - 1 to eigenvalue n0, so
# this resolves r up to (eps/4)^(1/24), about 0.21
_MAX_TERMS = 24
# Numbers one bisection step evaluates, at most, before it tries a single
# shift per bracket: below it NumPy's cost per call outweighs the work, so
# a small stack tries several shifts at once and needs fewer steps
_STEP_WIDTH = 4096


def _solve_dominant(lower, diag, upper, rhs):
    """Solve lower_i x_(i-1) + diag_i x_i + upper_i x_(i+1) = rhs_i, a
    strictly diagonally dominant tridiagonal system with lower_0 and the
    last upper zero, by cyclic reduction: each odd row takes its two even
    neighbours out, the odd rows are solved the same way, and the even rows
    follow from them. Every level keeps the dominance, so no pivot is
    small, and a level is a few operations on strided views."""
    n = diag.size
    if n == 1:
        return rhs / diag
    if n % 2 == 0:            # a last row x = 0: every odd row has two
        lower, diag, upper, rhs = (np.append(v, w) for v, w in zip(
            (lower, diag, upper, rhs), (0.0, 1.0, 0.0, 0.0)))
    below, above = slice(0, -1, 2), slice(2, None, 2)
    # minus the multiples of the rows below and above that each odd row
    # takes away
    left = np.divide(lower[1::2], diag[below])
    np.negative(left, out=left)
    right = np.divide(upper[1::2], diag[above])
    np.negative(right, out=right)
    odd_diag = diag[1::2] + left * upper[below]
    odd_diag += right * lower[above]
    odd_rhs = rhs[1::2] + left * rhs[below]
    odd_rhs += right * rhs[above]
    left *= lower[below]
    right *= upper[above]
    x = np.empty(diag.size)
    x[1::2] = odd = _solve_dominant(left, odd_diag, right, odd_rhs)
    even = x[0::2]
    even[0] = 0.0
    np.multiply(lower[above], odd, out=even[1:])
    even[:-1] += upper[below] * odd
    np.subtract(rhs[0::2], even, out=even)
    even /= diag[0::2]
    return x[:n]


def _cubic_spline(x, y):
    """Not-a-knot cubic spline through the samples, as a vectorized phi(x).

    The system and the Hermite coefficients and evaluation order are those
    of ``scipy.interpolate.CubicSpline(x, y)`` for more than three samples.
    Its two not-a-knot end rows share their first (last) coefficient with
    the row next to them, so subtracting them there leaves a strictly
    diagonally dominant system for the inner slopes, which
    ``_solve_dominant`` solves, and the end slopes follow from the end
    rows. Queries outside the samples extrapolate the end pieces.
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
    # row i of 1..n-2: dx_i s_(i-1) + 2 (dx_(i-1) + dx_i) s_i
    # + dx_(i-1) s_(i+1) = b_i; row 0: dx_1 s_0 + d0 s_1 = b_0, and row
    # n - 1: d1 s_(n-2) + dx_(n-3) s_(n-1) = b_(n-1)
    lower, upper = dx[1:].copy(), dx[:-1].copy()
    diag = 2 * (dx[:-1] + dx[1:])
    b = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
    d0, d1 = x[2] - x[0], x[-1] - x[-3]
    b0 = ((dx[0] + 2 * d0) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / d0
    b1 = (dx[-1] ** 2 * slope[-2]
          + (2 * d1 + dx[-1]) * dx[-2] * slope[-1]) / d1
    diag[0] -= d0
    b[0] -= b0
    diag[-1] -= d1
    b[-1] -= b1
    lower[0] = upper[-1] = 0.0
    # a row whose dominance rounding takes away leaves the system singular
    # in double precision
    if not np.all(lower + upper < diag):
        raise InputDataError("spline system is singular")
    s = np.empty(x.size)
    s[1:-1] = _solve_dominant(lower, diag, upper, b)
    s[0] = (b0 - d0 * s[1]) / dx[1]
    s[-1] = (b1 - d1 * s[-2]) / dx[-2]
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


class Chain(NamedTuple):
    """The birth-death chain of a grid's C'C (``discretize``)."""
    rho: np.ndarray        # n + 1 edge resistances 1/c, walls included
    pi: np.ndarray         # n node masses
    exponent: int          # eigenvalues of C'C are the chain's times 4^this

    @property
    def n(self):
        return self.pi.size


def discretize(p, h, n, *, domain):
    """The finite-difference Witten operator on a uniform grid, as the
    birth-death chain of its factored form C'C.

    ``p`` is a callable phi(x) evaluated on arrays of grid points, such as
    the spline ``compare`` builds from sampled data, and ``domain`` the
    solve interval ``(lo, hi)``. ``n`` counts interior points, the
    ``n + 2`` points of ``numpy.linspace(lo, hi, n + 2)`` without its ends;
    the ends are Dirichlet. With ``ref`` the middle of phi's range on the
    points, the chain's resistances are e^(2 (phi(mid) - ref)/h) / m^2 and
    its masses e^(-2 (phi(x) - ref)/h), each one exponential, where
    h/dx = m 2^exponent: the eigenvalues of C'C are those of the chain
    times 4^exponent. Only the chain is returned: the points and the
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
    dx = float(full[1] - full[0])
    mid = 0.5 * (full[:-1] + full[1:])
    phi = np.asarray(p(full), dtype=float)
    del full
    phim = np.asarray(p(mid), dtype=float)
    del mid
    top, bottom = float(np.max(phi)), float(np.min(phi))
    spread = top - bottom
    if 2.0 * spread / h > 600.0:
        raise InputDataError(
            f"potential range {spread:g} over the solve domain is too large "
            f"for h={h:g}: the small eigenvalues underflow double precision")

    # C's entries are (h/dx) e^(rise/h), rise = phi(x) - phi(mid) for a
    # midpoint and a node beside it, but the walls' rises count for the
    # cells only; the resistances' buffer takes the differences
    rho = np.subtract(phi[1:], phim)
    rise, fall, wall = rho[:-1].max(), rho.min(), rho[-1]
    np.subtract(phi[:-1], phim, out=rho)
    rise, fall = max(rise, rho[1:].max()), min(fall, rho.min())
    worst = max(rise, wall, rho[0], -fall) / h
    if worst > _MAX_EXP_ARG:
        raise InputDataError(
            f"grid resolves the potential too poorly at h={h:g} "
            f"(per-cell exponent {worst:.1f}); increase the grid size")
    scale = h / dx                 # a Python float: inf, not a warning
    if not scale * math.exp(rise / h) < _MAX_ENTRY:
        raise InputDataError(
            f"h={h:g} is too large for a grid of {n} points: the factor's "
            f"entries (h/dx = {scale:g}) overflow double precision when "
            f"squared")
    m, exponent = math.frexp(scale)
    ref = 0.5 * (top + bottom)
    np.subtract(phim, ref, out=rho)
    rho /= 0.5 * h
    np.exp(rho, out=rho)
    rho /= m * m
    pi = np.subtract(phi[1:-1], ref)
    pi /= -0.5 * h
    np.exp(pi, out=pi)
    return Chain(rho, pi, exponent)


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


def _compact(x, wells):
    """Move the entries of ``x`` off ``wells`` to its front, in place."""
    i = 0
    for s, e in zip([-1] + wells.tolist(), wells.tolist() + [x.size]):
        x[i:i + e - s - 1] = x[s + 1:e]      # a forward copy, no buffer
        i += e - s - 1
    return x[:i]


def _reduce(chain, wells, h):
    """Eliminate every grid node but the wells from a grid's chain, the
    pencil (K, diag pi) of C'C (``discretize``), exactly.

    ``wells`` are the chain's nodes, ascending, nearest each minimum. The
    Schur complement of K - sigma diag(pi) onto the wells is
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
    ``_MAX_TERMS`` is bad input, and so are two wells on one node.

    The reduction works in the chain's two buffers and spends them: ``pi``
    keeps the masses off the wells, ``rho`` the resistances to the right,
    then the series' scratch. So a chain the caller keeps costs nothing.
    """
    n0, n = wells.size, chain.n
    if np.any(np.diff(wells) == 0):
        raise InputDataError(
            f"grid too coarse at h={h:g}: two wells fall on one of its {n} "
            f"points; increase the grid size")
    rho = chain.rho
    # segment s runs from the node after well s - 1 (or the left end) to
    # the node before well s (or the right end): its edges are
    # ends[s] + 1 .. ends[s + 1], its interior nodes one fewer
    ends = np.concatenate(([-1], wells, [n]))
    sizes = np.diff(ends) - 1
    # the resistance from each node to its segment's left and right end
    left_of = _cumsums(rho.copy(), sizes + 1)
    total = left_of[ends[1:]]
    A = _compact(left_of[:-1], wells)
    B = _compact(_cumsums(rho[::-1], sizes[::-1] + 1)[-2::-1], wells)
    well_pi = chain.pi[wells]
    p = _compact(chain.pi, wells)
    # the harmonic functions, each from its small side: 1 at the well
    # left (right) of the segment, 0 at its other end
    T = np.repeat(total, sizes)
    basis = np.empty((2, T.size))
    left, right = basis
    np.divide(B, T, out=left)
    np.divide(A, T, out=right)
    np.subtract(1.0, right, out=left, where=A < B)
    np.subtract(1.0, left, out=right, where=B < A)
    del A, B, left_of
    after = rho[:T.size]
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
                np.multiply(pz[u], y[v], out=after)
                sums[row, full] = np.add.reduceat(after, starts)
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
                         chain.exponent)


def eigh_tridiagonal(kappa, series, bound, index):
    """Eigenvalues ``index`` (0-based, ascending) of each of G stacked
    chains on n0 wells; an array (G, len(index)).

    ``kappa`` (n0 + 1, G) holds each chain's series conductances, walls
    included, and ``series`` (terms, 2 n0 + 1, G) its terms, each stored
    times ``bound``^k: rows 0..n0 the couplings of the conductances (zero at
    the walls), rows n0 + 1.. the masses. At a shift sigma in
    [0, ``bound``] the chain is S(sigma) = L(kappa~) - sigma diag(m~), with
    kappa~ = kappa + sigma couplings(sigma) and m~ = masses(sigma) summed
    by Horner in sigma / ``bound``, and by Haynsworth's inertia formula its
    negative pivots count the eigenvalues of C'C below sigma. Its pivots
    are d_j = kappa~_(j+1) + g_j, where g_0 = kappa~_0 - sigma m~_0 and
    g_(j+1) is the series conductance of g_j and kappa~_(j+1) less
    sigma m~_(j+1): the shift's is the only subtraction. They are carried
    as resistances rho_j = 1/g_j, so that a zero pivot makes the next
    resistance 0 instead of a NaN, and d_j is negative exactly when
    rho_j < 0 <= rho_j + 1/kappa~_(j+1), a zero pivot counting as negative.

    Every (chain, index) pair is bisected at once on the bit patterns of
    sigma, which order nonnegative doubles as integers, from [0, ``bound``]
    until its bracket holds two adjacent doubles; the eigenvalue is the
    upper one. Each step tries a few shifts per bracket while the stack is
    small (``_STEP_WIDTH``). The name stays for ``bench/spans.py``, which
    times the bisection by wrapping it."""
    if not all(np.all(np.isfinite(x)) for x in (kappa, series, bound)):
        raise InvariantViolation(
            "a grid's reduction onto its wells is not finite")
    n0 = kappa.shape[0] - 1
    kappa, series, bound = (x[..., None, None] for x in (kappa, series,
                                                          bound))
    index = np.asarray(index)[:, None]
    size = bound.size * index.size * (2 * n0 + 1)
    parts = max(2, _STEP_WIDTH // size)
    cuts = np.arange(parts + 1)
    lo = np.zeros((bound.size, index.size, 1), dtype=np.int64)
    hi = lo + bound.view(np.int64)
    # each step leaves a bracket of w patterns at most ceil(w / parts) wide
    steps, w = 0, int(hi.max())
    while w > 1:
        steps, w = steps + 1, -(-w // parts)
    rho = np.empty((n0, bound.size, index.size, parts - 1))
    s = np.empty_like(rho)
    with np.errstate(divide="ignore", over="ignore", invalid="raise"):
        for _ in range(steps):
            q, r = np.divmod(hi - lo, parts)
            bits = lo + q * cuts + r * cuts // parts
            sigma = bits[..., 1:-1].view(float)
            x = sigma / bound
            v = series[-1]
            for term in series[-2::-1]:
                v = v * x
                v += term
            v = v * sigma
            kt, m = v[:n0 + 1], v[n0 + 1:]
            kt += kappa
            res = np.divide(1.0, kt[1:], out=kt[1:])
            g = kappa[0] - m[0]
            for j in range(n0):
                np.divide(1.0, g, out=rho[j])
                np.add(rho[j], res[j], out=s[j])
                if j + 1 < n0:
                    np.divide(1.0, s[j], out=g)
                    g -= m[j + 1]
            below = np.count_nonzero((rho < 0) & (s >= 0), axis=0) <= index
            k = np.sum(below, axis=-1, keepdims=True)   # shifts below
            lo, hi = (np.take_along_axis(bits, k, -1),
                      np.take_along_axis(bits, k + 1, -1))
    return hi[..., 0].view(float)


def small_eigenvalues(reductions, first, last):
    """Eigenvalues ``first..last`` (0-based, ascending) of C'C for each
    grid reduced onto its wells (``_reduce``); one array per grid.

    The reductions, all of one number of wells, are stacked, a shorter
    series padded with zero terms, and bisected together
    (``eigh_tridiagonal``); each grid's eigenvalues are then scaled back by
    its 4^exponent."""
    n0 = reductions[0].mass.shape[1]
    if not 0 <= first <= last < n0:
        raise InputDataError("requested eigenvalue index exceeds dimension")
    series = np.zeros((max(len(r.off) for r in reductions), 2 * n0 + 1,
                       len(reductions)))
    for g, r in enumerate(reductions):
        series[:len(r.off), 1:n0, g] = r.off
        series[:len(r.mass), n0 + 1:, g] = r.mass
    sigma = eigh_tridiagonal(np.stack([r.kappa for r in reductions], -1),
                             series, np.array([r.bound for r in reductions]),
                             np.arange(first, last + 1))
    return [np.ldexp(s, 2 * r.exponent) for s, r in zip(sigma, reductions)]


def _well_nodes(positions, domain, n):
    """The chain's nodes, the interior grid points, nearest ``positions``."""
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
    # first bisection. One spline serves every grid, and goes before the
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
    nonzero = ([w.tolist() for w in small_eigenvalues(grids, 1, k_nonzero)]
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
