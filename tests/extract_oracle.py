"""Reference extraction of a sampled 1D potential: a loop that classifies
each strict interior extremum as a minimum or a maximum and pairs every
maximum with the minima on either side.

This is ``extract_critical_structure`` as it stood before the package built
its rows by the parity of the extrema. The function below is kept verbatim
as a differential oracle; it shares the checked samples, the quartic fit
``_fit_extremum`` and the ``CriticalStructure`` constructor with the
package, and nothing of the row building.
"""

import numpy as np

from metastab.errors import DegenerateLandscapeError, InputDataError
from metastab.landscape import (CriticalStructure, SampledPotential,
                                _fit_extremum)


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
        uncertainties.append(unc)
        if kind == "min":
            if second <= 0:
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
            if second >= 0:
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
