"""Direct spectral check of the predictions on 1D sampled potentials.

The Witten operator -h^2 d^2/dx^2 + phi'^2 - h phi'' is discretized in
factored form A = C'C, where C is the (n+1) x n bidiagonal discretization of
the conjugated derivative h e^(-phi/h) d/dx e^(phi/h) on interval midpoints.
Working with the factor instead of assembling A is what makes eigenvalues of
size 1e-13 and below resolvable at all: the small singular values of a
bidiagonal matrix are determined to relative accuracy by its entries, and
bisection on the Golub-Kahan tridiagonal form recovers each one to its own
precision no matter how many orders of magnitude separate it from the norm.
The discrete Gibbs vector e^(-phi/h) is annihilated exactly by the interior
rows of C, so the bottom of the spectrum is clean.

The bisection (LAPACK ``stebz``) and the spline solve (``gtsv``) are SciPy's
compiled routines, called with the arguments of SciPy's public wrappers but
loaded without importing the ``scipy.linalg`` package (see ``_lapack``).
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


def eigh_tridiagonal(d, e, lo, hi, tol):
    """Eigenvalues ``lo..hi`` (0-based, ascending) of the symmetric
    tridiagonal matrix with diagonal ``d`` and off-diagonal ``e``, by LAPACK
    bisection ``stebz`` to absolute tolerance ``tol``.

    Bit for bit ``scipy.linalg.eigh_tridiagonal(d, e, eigvals_only=True,
    select="i", select_range=(lo, hi), tol=tol, lapack_driver="stebz")``:
    the same compiled routine with the same arguments and checks, loaded
    without the ``scipy.linalg`` package (see ``_lapack``). It stays a
    module attribute because ``bench/spans.py`` times the bisection by
    wrapping this name."""
    d = np.asarray_chkfinite(d, dtype=float)
    e = np.asarray_chkfinite(e, dtype=float)
    m, w, _, _, info = flapack().dstebz(d, e, 2, 0.0, 1.0, lo + 1, hi + 1,
                                        float(tol), "E")
    check_info(info, "stebz")
    return w[:m]


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
    """
    xs, phis = p.xs, p.phis
    top = max(s.phi for s in cs.saddles) if cs.saddles else float(np.max(phis))
    target = top + max(0.5, 10.0 * h)
    lo_x = min(cs.positions[m.id] for m in cs.minima)
    hi_x = max(cs.positions[m.id] for m in cs.minima)
    left = xs[0]
    for i in range(np.searchsorted(xs, lo_x), -1, -1):
        if phis[i] >= target:
            left = xs[i]
            break
    right = xs[-1]
    for i in range(np.searchsorted(xs, hi_x), len(xs)):
        if phis[i] >= target:
            right = xs[i]
            break
    return float(left), float(right)


class DiscretizedWitten(NamedTuple):
    x: np.ndarray          # interior grid points
    h: float
    acoef: np.ndarray      # C[j, j] entries, j = 0..n-1
    bcoef: np.ndarray      # C[j, j-1] entries, j = 1..n (index 0 unused)
    phi: np.ndarray        # potential on interior points

    @property
    def n(self):
        return self.x.size


def discretize(p, h, n=None, domain=None):
    """Factored finite-difference Witten operator on a uniform grid.

    ``p`` is a callable phi(x) evaluated on arrays of grid points, such as
    the spline ``compare`` builds from sampled data, and ``domain`` the
    solve interval ``(lo, hi)``. ``n`` counts interior points; the ends are
    Dirichlet.
    """
    if not h > 0:
        raise InputDataError("h must be positive")
    if not callable(p):
        raise InputDataError("potential must be a callable phi(x)")
    if domain is None:
        raise InputDataError("discretize needs an explicit domain")
    lo, hi = domain
    if not hi > lo:
        raise InputDataError("empty domain")
    if n is None:
        n = default_grid(h, lo, hi)
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
    scale = h / dx
    acoef = scale * np.exp(up[:-1])                       # j = 0..n-1
    bcoef = np.concatenate([[0.0], -scale * np.exp(dn[1:])])  # j = 1..n
    return DiscretizedWitten(full[1:-1], h, acoef, bcoef, phi[1:-1])


def _qr_bidiagonal(dw):
    """Givens QR of the factor C; returns the upper bidiagonal R as (d, e).

    The recurrence is sequential, so it runs on Python floats: indexing
    NumPy arrays element by element costs more than the arithmetic.
    """
    n = dw.n
    a = dw.acoef.tolist()
    b = dw.bcoef.tolist()
    d = [0.0] * n
    e = [0.0] * max(n - 1, 0)
    r = a[0]
    for j in range(n):
        rho = math.hypot(r, b[j + 1])
        d[j] = rho
        if j + 1 < n:
            t = a[j + 1]
            if rho == 0.0:
                c_, s_ = 1.0, 0.0
            else:
                c_, s_ = r / rho, b[j + 1] / rho
            e[j] = s_ * t
            r = c_ * t
    return np.array(d), np.array(e)


def small_eigenvalues(dw, k):
    """The k smallest eigenvalues of the discretized operator, ascending.

    Eigenvalues are squared singular values of the QR factor R of C, and the
    singular values of the bidiagonal R are found by bisection on its
    Golub-Kahan tridiagonal embedding (zero diagonal, R entries interleaved
    off the diagonal). With a tiny tolerance the bisection refines every
    eigenvalue to its own relative precision, which is what lets a 1e-40
    eigenvalue coexist with an operator norm of 1e4.
    """
    if k < 1 or k > dw.n:
        raise InputDataError("requested eigenvalue count exceeds dimension")
    d, e = _qr_bidiagonal(dw)
    n = dw.n
    off = np.empty(2 * n - 1)
    off[0::2] = d
    off[1::2] = e
    w = eigh_tridiagonal(np.zeros(2 * n), off, n, n + k - 1,
                         np.finfo(float).tiny)
    return np.maximum(w, 0.0) ** 2


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
    _RICHARDSON_TOL makes that eigenvalue INCONCLUSIVE instead.
    """
    hs = sorted(set(float(x) for x in h_list), reverse=True)
    if not hs or hs[-1] <= 0:
        raise InputDataError("need positive h values")
    if not isinstance(p, SampledPotential):
        raise InputDataError("validation needs a sampled potential")
    cs = report.cs
    if not cs.positions:
        raise InputDataError("validation needs a structure extracted from "
                             "samples")
    # one spline serves every h and both grids; its gtsv solve comes from
    # the same LAPACK module as the bisection
    phi_fn = _cubic_spline(p.xs, p.phis)
    n0 = report.n0
    k_nonzero = n0 - 1
    steps = []
    for h in hs:
        entries = report.evaluate(h)[1:]
        domain = _energy_window(p, cs, h)
        dw1 = discretize(phi_fn, h, grid, domain=domain)
        n = dw1.n
        coarse = small_eigenvalues(dw1, n0)[1:]
        dw2 = discretize(phi_fn, h, 2 * n, domain=domain)
        fine = small_eigenvalues(dw2, n0)[1:]
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
