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
"""

import math
from typing import NamedTuple

import numpy as np

from .errors import InputDataError
from .landscape import SampledPotential, extract_critical_structure

_MAX_EXP_ARG = 150.0     # per-cell exponent guard; beyond this the grid is
                         # far too coarse for the requested h anyway


def eigh_tridiagonal(*args, **kwargs):
    """``scipy.linalg.eigh_tridiagonal``, imported on first use so that the
    analysis path never loads SciPy. It stays a module attribute because
    ``bench/spans.py`` times the bisection by wrapping this name."""
    from scipy.linalg import eigh_tridiagonal as eigh
    return eigh(*args, **kwargs)


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
    dx: float
    h: float
    acoef: np.ndarray      # C[j, j] entries, j = 0..n-1
    bcoef: np.ndarray      # C[j, j-1] entries, j = 1..n (index 0 unused)
    phi: np.ndarray        # potential on interior points

    @property
    def n(self):
        return self.x.size


def discretize(p, h, n=None, domain=None):
    """Factored finite-difference Witten operator on a uniform grid.

    ``p`` is a SampledPotential (interpolated by a cubic spline; the domain
    defaults to an energy window around the critical points) or a callable
    phi(x) (then ``domain`` is required). ``n`` counts interior points; the
    ends are Dirichlet.
    """
    if not h > 0:
        raise InputDataError("h must be positive")
    if isinstance(p, SampledPotential):
        cs = extract_critical_structure(p)
        xs_min = sorted(cs.positions[m.id] for m in cs.minima)
        if domain is not None:
            lo, hi = domain
            if lo > xs_min[0] or hi < xs_min[-1]:
                raise InputDataError("domain does not cover all minima")
            if lo < p.xs[0] or hi > p.xs[-1]:
                raise InputDataError("domain extends beyond the sampled data")
        else:
            lo, hi = _energy_window(p, cs, h)
        from scipy.interpolate import CubicSpline
        phi_fn = CubicSpline(p.xs, p.phis)
    elif callable(p):
        if domain is None:
            raise InputDataError("a callable potential needs an explicit domain")
        lo, hi = domain
        phi_fn = p
    else:
        raise InputDataError("potential must be sampled data or a callable")
    if not hi > lo:
        raise InputDataError("empty domain")
    if n is None:
        n = default_grid(h, lo, hi)
    if n < 100:
        raise InputDataError("grid too coarse (need at least 100 points)")

    full = np.linspace(lo, hi, n + 2)
    dx = full[1] - full[0]
    mid = 0.5 * (full[:-1] + full[1:])
    phi = np.asarray(phi_fn(full), dtype=float)
    phim = np.asarray(phi_fn(mid), dtype=float)
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
    return DiscretizedWitten(full[1:-1], dx, h, acoef, bcoef, phi[1:-1])


def _qr_bidiagonal(dw):
    """Givens QR of the factor C; returns the upper bidiagonal R as (d, e)."""
    n = dw.n
    d = np.empty(n)
    e = np.empty(max(n - 1, 0))
    r = dw.acoef[0]
    for j in range(n):
        rho = math.hypot(r, dw.bcoef[j + 1])
        d[j] = rho
        if j + 1 < n:
            t = dw.acoef[j + 1]
            if rho == 0.0:
                c_, s_ = 1.0, 0.0
            else:
                c_, s_ = r / rho, dw.bcoef[j + 1] / rho
            e[j] = s_ * t
            r = c_ * t
    return d, e


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
    w = eigh_tridiagonal(np.zeros(2 * n), off, eigvals_only=True,
                         select="i", select_range=(n, n + k - 1),
                         tol=np.finfo(float).tiny, lapack_driver="stebz")
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
    c_tol: float
    n0: int

    @property
    def passed(self):
        return all(v == "PASS" for v in self.verdicts)


def compare(report, p, h_list, grid=None, c_tol=3.0, richardson_tol=0.05):
    """Validate a SpectrumReport against direct solves over a schedule of h.

    For each nonzero prediction the verdict is PASS when |ratio - 1| is
    nonincreasing along descending h and the final value is at most
    c_tol * h_final; a grid whose n vs 2n eigenvalues disagree by more than
    richardson_tol makes that eigenvalue INCONCLUSIVE instead.
    """
    hs = sorted(set(float(x) for x in h_list), reverse=True)
    if not hs or hs[-1] <= 0:
        raise InputDataError("need positive h values")
    if not isinstance(p, SampledPotential):
        raise InputDataError("validation needs a sampled potential")
    # one extraction and one spline serve every h and both grids
    cs = extract_critical_structure(p)
    from scipy.interpolate import CubicSpline
    phi_fn = CubicSpline(p.xs, p.phis)
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
        if any(s.richardson[i] > richardson_tol for s in steps):
            verdicts.append("INCONCLUSIVE")
            continue
        devs = [s.deviations[i] for s in steps]
        monotone = all(b <= a for a, b in zip(devs, devs[1:]))
        ok = monotone and devs[-1] <= c_tol * hs[-1]
        verdicts.append("PASS" if ok else "FAIL")
    return ValidationReport(tuple(steps), tuple(verdicts), c_tol, n0)
