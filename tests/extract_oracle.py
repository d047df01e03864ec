"""Reference extraction of a sampled 1D potential: a loop that classifies
each strict interior extremum as a minimum or a maximum, fits each one on
its own with NumPy's least-squares ``Polynomial.fit``, and pairs every
maximum with the minima on either side.

``extract_critical_structure`` below is the package's extraction as it
stood before it built its rows by the parity of the extrema, and
``_fit_extremum`` the package's fit before it fitted every extremum at once
in closed form; both are kept verbatim as a differential oracle. The one
change is the degenerate-extremum rule, which the package and the oracle
share: a curvature counts as zero within ``CURVATURE_FLOOR * eps *
max|y_k - y_i| / dx^2`` over the extremum's five samples (y_i the
extremum's sample, dx their mean spacing), where the oracle used to compare
it with 0 and so decided on the sign of rounding noise. The oracle shares
the checked samples, that floor constant and the ``CriticalStructure``
constructor with the package, and nothing of the fit or the row building.

The fit runs a least-squares solve and a companion-matrix eigensolve
through BLAS and LAPACK, whose rounding depends on the CPU's code path and
grows with |y| rather than with the differences of y, so its floats agree
with the package's closed form only within the measured ``_EPS_BOUNDS`` of
``tests/test_landscape.py``.
"""

import numpy as np

from metastab.errors import DegenerateLandscapeError, InputDataError
from metastab.landscape import (CURVATURE_FLOOR, CriticalStructure,
                                SampledPotential)


def _fit_extremum(xs, phis, i):
    """Refine one sampled extremum by a local quartic interpolation.

    Returns (x_star, value, second_derivative, value_uncertainty). The
    uncertainty is the gap between the quartic and a plain parabola fit, an
    a posteriori estimate of the sampling error on the critical value.
    """
    n = xs.size
    lo = min(max(i - 2, 0), n - 5)
    w = slice(lo, lo + 5)
    t = xs[w] - xs[i]
    y = phis[w]
    quart = np.polynomial.Polynomial.fit(t, y, 4).convert()
    dq = quart.deriv()
    roots = dq.roots()
    half = max(abs(t[0]), abs(t[-1]))
    real = [r.real for r in roots if abs(r.imag) < 1e-9 * (1 + abs(r)) and
            abs(r.real) <= half]
    # parabola through the centered 3 points, used as the fallback and for
    # the error estimate
    c = i - lo
    t3 = t[max(c - 1, 0):c + 2]
    y3 = y[max(c - 1, 0):c + 2]
    par = np.polynomial.Polynomial.fit(t3, y3, 2).convert()
    pcoef = par.coef
    if abs(pcoef[2]) > 0:
        t_par = -pcoef[1] / (2 * pcoef[2])
        v_par = par(t_par)
    else:
        t_par, v_par = 0.0, y[c]
    if real:
        t_star = min(real, key=abs)
        value = float(quart(t_star))
        second = float(quart.deriv(2)(t_star))
    else:
        t_star = t_par
        value = float(v_par)
        second = float(2 * pcoef[2])
    return xs[i] + t_star, value, second, abs(value - float(v_par))


def _curvature_floor(xs, phis, i):
    """The curvature below which the extremum at sample ``i`` is flat."""
    n = xs.size
    lo = min(max(i - 2, 0), n - 5)
    y = phis[lo:lo + 5]
    dx = (xs[lo + 4] - xs[lo]) / 4
    return (CURVATURE_FLOOR * np.finfo(float).eps
            * np.max(np.abs(y - phis[i])) / (dx * dx))


def extract_critical_structure(p: SampledPotential, eps_level=None):
    """Extract the critical structure of a sampled 1D potential.

    Strict interior local minima and maxima become the critical points; in 1D
    every interior maximum separates its two neighboring wells, so each maximum
    is recorded as a saddle joining the adjacent minima. Hessian scalars are
    read off a 5-point fit around each extremum.

    Raises DegenerateLandscapeError for plateaus (3 or more equal consecutive
    samples), flat extrema, or non-confining edges (sample sloping downward at
    an edge).
    """
    xs, phis = p.xs, p.phis
    n = xs.size

    d = np.diff(phis)
    flats = np.flatnonzero(d == 0.0)
    if flats.size:
        # consecutive zero diffs mean 3+ equal samples
        if np.any(np.diff(flats) == 1):
            raise DegenerateLandscapeError("plateau of 3+ equal samples")
        for j in flats:
            # an isolated equal pair is fine on a slope but degenerate at a
            # crest or trough
            if 0 < j and j + 2 < n:
                if (phis[j - 1] - phis[j]) * (phis[j + 2] - phis[j + 1]) > 0:
                    raise DegenerateLandscapeError(
                        f"flat extremum near x = {xs[j]:g}")
    if phis[0] < phis[1] or phis[-1] < phis[-2]:
        raise DegenerateLandscapeError(
            "potential slopes downward at an edge (non-confining)")

    # (index, 'min'|'max') in x order; a sample is a maximum only where it
    # is no minimum, as in an if/elif over the interior samples
    left, mid, right = phis[:-2], phis[1:-1], phis[2:]
    is_min = (mid < left) & (mid < right)
    is_max = ~is_min & (mid > left) & (mid > right)
    hit = is_min | is_max
    kinds = [(i + 1, "min" if low else "max")
             for i, low in zip(np.flatnonzero(hit).tolist(),
                               is_min[hit].tolist())]

    if not kinds:
        raise DegenerateLandscapeError("no interior extrema found")
    for (ia, ka), (ib, kb) in zip(kinds, kinds[1:]):
        if ka == kb:
            raise InputDataError(
                f"extrema do not alternate near x = {xs[ia]:g}")
    if kinds[0][1] != "min" or kinds[-1][1] != "min":
        raise DegenerateLandscapeError(
            "outermost extrema must be minima (wells cut by the window?)")

    minima, saddles, positions = [], [], {}
    uncertainties = []
    n_min = 0
    n_sad = 0
    last_min_id = None
    pending = None  # saddle waiting for its right minimum
    for i, kind in kinds:
        x_star, value, second, unc = _fit_extremum(xs, phis, i)
        floor = _curvature_floor(xs, phis, i)
        uncertainties.append(unc)
        if kind == "min":
            if not second > floor:
                raise DegenerateLandscapeError(
                    f"degenerate minimum near x = {xs[i]:g}")
            n_min += 1
            mid = f"m{n_min}"
            minima.append((mid, value, second))
            positions[mid] = x_star
            if pending is not None:
                sid, sval, ssec, left_id = pending
                saddles.append((sid, sval, ssec, ssec, (left_id, mid)))
                pending = None
            last_min_id = mid
        else:
            if not second < -floor:
                raise DegenerateLandscapeError(
                    f"degenerate maximum near x = {xs[i]:g}")
            n_sad += 1
            sid = f"s{n_sad}"
            positions[sid] = x_star
            pending = (sid, value, abs(second), last_min_id)

    if eps_level is None:
        scale = max(1.0, float(np.max(np.abs(phis))))
        floor = 64 * np.finfo(float).eps * scale
        eps_level = max(10.0 * max(uncertainties), floor)
    return CriticalStructure(minima, saddles, eps_level, positions=positions)
