"""Landscape ingestion.

Two input modes produce the same in-memory object, a :class:`CriticalStructure`:

* abstract mode, a JSON document listing minima and separating saddles with
  their Hessian scalars and connectivity, and
* sampled mode, a 1D potential given as (x, phi) samples from which critical
  points are extracted.

Only scalar Hessian data is kept (|det Hess phi| and, for saddles, the modulus
of the negative eigenvalue): nothing downstream needs more than
|det Hess|^(1/4) and the square root of the negative eigenvalue.

Both modes hand the structure plain rows, (id, phi, det_hess) per minimum
and (id, phi, det_hess, neg_eig, joins) per saddle, with joins the pair of
minimum ids. A structure numbers its minima 0..n-1 and its saddles 0..s-1
in id order, so that comparing two indices compares their ids, and keeps
each point's data as flat lists over those indices; a saddle's joins are
minimum indices. Everything downstream works on the indices, and ids come
back only where a class or a report block names a point.
"""

import json
import math
import os
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from .errors import DegenerateLandscapeError, InputDataError
from .topology import verify_separating

DEFAULT_LEVEL_TOL = 1e-9
# Least and most x that five consecutive samples may span: the quartic fit
# of an extremum (``_fit_extremum``) raises that span and its inverse to the
# fourth power, which must stay well inside double precision
_SPAN_RANGE = (1e-60, 1e60)


def cluster_levels(values, eps):
    """Cluster a set of real values into discrete levels.

    Values whose sorted neighbors differ by at most ``eps`` are chained into
    one cluster; clusters are numbered from the lowest. Returns
    ``(cluster, reps)``: ``cluster[i]`` is the cluster of the i-th value and
    ``reps[k]`` the representative of cluster k. All equality and ordering
    decisions on potential values go through cluster indices, which keeps
    the comparisons transitive.
    """
    vals = np.array([float(v) for v in values])
    if not vals.size:
        raise InputDataError("no values to cluster")
    order = np.argsort(vals, kind="stable")
    ordered = vals[order]
    starts = np.flatnonzero(np.diff(ordered) > eps) + 1
    step = np.zeros(vals.size, dtype=np.intp)
    step[starts] = 1
    cluster = np.empty(vals.size, dtype=np.intp)
    cluster[order] = np.cumsum(step)
    # the representative is printed, so it stays NumPy's mean bit for bit:
    # a lone value is added to the sum's +0 start (-0 becomes 0), and a tie
    # cluster keeps the pairwise sum
    bounds = np.concatenate(([0], starts, [vals.size]))
    reps = (ordered[bounds[:-1]] + 0.0).tolist()
    for k in np.flatnonzero(np.diff(bounds) > 1).tolist():
        reps[k] = float(np.mean(ordered[bounds[k]:bounds[k + 1]]))
    return cluster.tolist(), reps


class CriticalStructure:
    """A validated Morse landscape skeleton.

    Parameters
    ----------
    minima : iterable of (id, phi, det_hess) rows
    saddles : iterable of (id, phi, det_hess, neg_eig, joins) rows, where
        joins is the pair of minimum ids, one per side of the saddle
    level_tolerance : float
        Absolute tolerance used to decide equality of potential values.
    positions : dict, optional
        1D coordinates by id, kept when the structure came from samples.

    Minima are numbered 0..n-1 and saddles 0..s-1 in id order, so comparing
    two indices compares the ids. Each point's data sits in flat lists over
    those indices: ``min_ids``, ``min_phi``, ``min_det_hess`` and
    ``min_cluster`` for the minima; ``sad_ids``, ``sad_phi``,
    ``sad_det_hess``, ``sad_neg_eig``, ``sad_joins`` (the pair of minimum
    indices, in input order) and ``sad_cluster`` for the saddles, the
    point's level cluster (see ``cluster_levels``), which is decided once,
    here. ``level_reps`` holds each cluster's representative value.
    """

    def __init__(self, minima, saddles, level_tolerance=DEFAULT_LEVEL_TOL,
                 positions=None):
        first = itemgetter(0)
        minima = sorted(minima, key=first)
        saddles = sorted(saddles, key=first)
        self.level_tolerance = float(level_tolerance)
        self.positions = dict(positions) if positions else None
        if not minima:
            raise InputDataError("structure has no minima")
        if not math.isfinite(self.level_tolerance):
            raise InputDataError("level_tolerance must be finite")
        if self.level_tolerance < 0:
            raise InputDataError("level_tolerance must be nonnegative")
        self.min_ids, self.min_phi, self.min_det_hess = (
            list(c) for c in zip(*minima))
        self.sad_ids, self.sad_phi, self.sad_det_hess, self.sad_neg_eig = (
            [s[i] for s in saddles] for i in range(4))
        at = {mid: i for i, mid in enumerate(self.min_ids)}
        if (len(at) != len(minima)
                or len(set(self.sad_ids).union(at)) != len(at) + len(saddles)):
            raise InputDataError("duplicate critical point ids")
        joins = [tuple(s[4]) for s in saddles]
        self.sad_joins = [(at.get(a), at.get(b)) for a, b in joins]
        self._validate(joins)
        n = len(minima)
        cluster, self.level_reps = cluster_levels(
            self.min_phi + self.sad_phi, self.level_tolerance)
        self.min_cluster, self.sad_cluster = cluster[:n], cluster[n:]
        mc = self.min_cluster
        for s, (k, (a, b)) in enumerate(zip(self.sad_cluster, self.sad_joins)):
            for m in (a, b):
                if mc[m] >= k:
                    raise InputDataError(
                        f"saddle {self.sad_ids[s]} is not above joined "
                        f"minimum {self.min_ids[m]} (within level tolerance)")

    def _validate(self, joins):
        """Reject non-finite or non-positive data and bad joins, naming the
        first offender in id order."""
        finite = math.isfinite
        for mid, p, d in zip(self.min_ids, self.min_phi, self.min_det_hess):
            if not (finite(p) and finite(d)):
                raise InputDataError(
                    f"minimum {mid}: phi and det_hess must be finite")
            if not (d > 0):
                raise InputDataError(f"minimum {mid}: det_hess must be > 0")
        for sid, p, d, g, (a, b), ab in zip(
                self.sad_ids, self.sad_phi, self.sad_det_hess,
                self.sad_neg_eig, self.sad_joins, joins):
            if not (finite(p) and finite(d) and finite(g)):
                raise InputDataError(
                    f"saddle {sid}: phi and Hessian data must be finite")
            if not (d > 0 and g > 0):
                raise InputDataError(f"saddle {sid}: Hessian data must be > 0")
            if ab[0] == ab[1]:
                raise InputDataError(
                    f"saddle {sid} joins the same representative twice")
            for m, mid in zip((a, b), ab):
                if m is None:
                    raise InputDataError(
                        f"saddle {sid} joins unknown minimum {mid!r}")


def structure_to_dict(cs):
    """Serialize a structure back to the document form of load_structure."""
    ids = cs.min_ids
    return {
        "level_tolerance": cs.level_tolerance,
        "minima": [
            {"id": mid, "phi": phi, "det_hess": det}
            for mid, phi, det in zip(ids, cs.min_phi, cs.min_det_hess)
        ],
        "saddles": [
            {"id": sid, "phi": phi, "det_hess": det, "neg_eig": neg,
             "joins": [ids[a], ids[b]]}
            for sid, phi, det, neg, (a, b) in zip(
                cs.sad_ids, cs.sad_phi, cs.sad_det_hess, cs.sad_neg_eig,
                cs.sad_joins)
        ],
    }


def _document_rows(doc):
    """(minimum rows, saddle rows, level tolerance) of a structure document,
    each field checked, as ``CriticalStructure`` takes them."""

    def _req(obj, key, kinds, where):
        if key not in obj:
            raise InputDataError(f"{where}: missing field {key!r}")
        val = obj[key]
        # bool is an int subtype, but true/false is no number or id
        if not isinstance(val, kinds) or isinstance(val, bool):
            raise InputDataError(f"{where}: field {key!r} has wrong type")
        return val

    def _num(obj, key, where):
        val = _req(obj, key, (int, float), where)
        try:
            return float(val)
        except OverflowError:
            raise InputDataError(
                f"{where}: field {key!r} is beyond float range") from None

    tol = (_num(doc, "level_tolerance", "document")
           if "level_tolerance" in doc else DEFAULT_LEVEL_TOL)
    # a JSON document gives exact str and float values, which the first
    # test of each entry accepts as they are; anything else goes through the
    # field checks, which raise the same errors in the same order as always
    minimum_row = itemgetter("id", "phi", "det_hess")
    saddle_row = itemgetter("id", "phi", "det_hess", "neg_eig", "joins")
    minima = []
    for entry in _req(doc, "minima", list, "document"):
        if not isinstance(entry, dict):
            raise InputDataError("minima entries must be objects")
        try:
            row = minimum_row(entry)
        except KeyError:
            row = None
        if not (row and type(row[0]) is str and type(row[1]) is float
                and type(row[2]) is float):
            row = (str(_req(entry, "id", str, "minimum")),
                   _num(entry, "phi", "minimum"),
                   _num(entry, "det_hess", "minimum"))
        minima.append(row)
    saddles = []
    for entry in (_req(doc, "saddles", list, "document")
                  if "saddles" in doc else []):
        if not isinstance(entry, dict):
            raise InputDataError("saddle entries must be objects")
        try:
            row = saddle_row(entry)
        except KeyError:
            row = None
        if not (row and type(row[0]) is str and type(row[1]) is float
                and type(row[2]) is float and type(row[3]) is float
                and type(row[4]) is list and len(row[4]) == 2
                and type(row[4][0]) is str and type(row[4][1]) is str):
            joins = _req(entry, "joins", list, "saddle")
            if len(joins) != 2 or not all(isinstance(j, str) for j in joins):
                raise InputDataError(
                    "saddle joins must be a pair of minimum ids")
            row = (str(_req(entry, "id", str, "saddle")),
                   _num(entry, "phi", "saddle"),
                   _num(entry, "det_hess", "saddle"),
                   _num(entry, "neg_eig", "saddle"),
                   joins)
        saddles.append(row)
    return minima, saddles, tol


def load_structure(document):
    """Parse and fully validate an abstract structure document.

    ``document`` may be a dict, a JSON string, or a path to a JSON file.
    Validation includes the separating-saddle condition, checked on the
    merge tree of the sublevel sets.
    """
    doc = document
    if isinstance(doc, (str, os.PathLike)):
        try:
            if isinstance(doc, str) and doc.lstrip().startswith("{"):
                doc = json.loads(doc)
            else:
                with open(doc, "r", encoding="utf-8") as fh:
                    doc = json.load(fh)
        except OSError as exc:
            raise InputDataError(f"cannot read structure: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise InputDataError(f"structure is not UTF-8: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise InputDataError(f"invalid JSON: {exc}") from exc
        except RecursionError:
            raise InputDataError("invalid JSON: nested too deeply") from None
    if not isinstance(doc, dict):
        raise InputDataError("structure document must be a JSON object")
    cs = CriticalStructure(*_document_rows(doc))
    # the merge tree is built without the parsed document, so the cyclic
    # collector has far fewer objects to walk while it grows
    del doc
    verify_separating(cs)
    return cs


# ---------------------------------------------------------------------------
# sampled 1D potentials


class SampledPotential(NamedTuple):
    xs: np.ndarray
    phis: np.ndarray


def load_samples(path):
    """Read a two-column x,phi CSV (header optional)."""
    rows = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                parts = line.split(",")
                if len(parts) != 2:
                    raise InputDataError(
                        f"{path}:{lineno}: expected two comma-separated columns")
                try:
                    rows.append((float(parts[0]), float(parts[1])))
                except ValueError:
                    if lineno == 1:
                        continue  # header
                    raise InputDataError(
                        f"{path}:{lineno}: non-numeric sample") from None
    except OSError as exc:
        raise InputDataError(f"cannot read samples: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputDataError(f"{path}: samples are not UTF-8: {exc}") from exc
    xs = np.array([r[0] for r in rows])
    phis = np.array([r[1] for r in rows])
    return make_sampled(xs, phis)


def make_sampled(xs, phis):
    xs = np.asarray(xs, dtype=float)
    phis = np.asarray(phis, dtype=float)
    if xs.ndim != 1 or xs.shape != phis.shape:
        raise InputDataError("xs and phis must be 1D arrays of equal length")
    if xs.size < 5:
        raise InputDataError("need at least 5 samples")
    if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(phis))):
        raise InputDataError("samples must be finite")
    with np.errstate(over="ignore"):     # a span beyond float range is inf
        increasing = np.all(np.diff(xs) > 0)
        span = xs[4:] - xs[:-4]
    if not increasing:
        raise InputDataError("xs must be strictly increasing")
    lo, hi = _SPAN_RANGE
    if not (span.min() >= lo and span.max() <= hi):
        raise InputDataError(
            f"sample spacing out of range: every five consecutive samples "
            f"must span {lo:g} to {hi:g} in x")
    return SampledPotential(xs, phis)


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
            if (0 < j and j + 2 < n and
                    (phis[j - 1] - phis[j]) * (phis[j + 2] - phis[j + 1]) > 0):
                raise DegenerateLandscapeError(
                    f"flat extremum near x = {xs[j]:g}")
    if phis[0] < phis[1] or phis[-1] < phis[-2]:
        raise DegenerateLandscapeError(
            "potential slopes downward at an edge (non-confining)")

    # the strict interior extrema in x order; a sample is a maximum only
    # where it is no minimum, as in an if/elif over the interior samples
    left, mid, right = phis[:-2], phis[1:-1], phis[2:]
    is_min = (mid < left) & (mid < right)
    is_max = ~is_min & (mid > left) & (mid > right)
    hit = is_min | is_max
    at = (np.flatnonzero(hit) + 1).tolist()
    low = is_min[hit]
    if not at:
        raise DegenerateLandscapeError("no interior extrema found")
    # the checks above make the extrema alternate: between two minima the
    # samples turn at a maximum or at a flat extremum, and so for maxima
    same = np.flatnonzero(low[1:] == low[:-1])
    if same.size:
        raise InputDataError(
            f"extrema do not alternate near x = {xs[at[same[0]]]:g}")
    if not (low[0] and low[-1]):
        raise DegenerateLandscapeError(
            "outermost extrema must be minima (wells cut by the window?)")

    # minimum j is the j-th even extremum, and saddle j the j-th odd one,
    # between minima j and j + 1
    minima, saddles, positions, uncertainties = [], [], {}, []
    for k, i in enumerate(at):
        x_star, value, second, unc = _fit_extremum(xs, phis, i)
        uncertainties.append(unc)
        j = k // 2 + 1
        if k % 2 == 0:
            if second <= 0:
                raise DegenerateLandscapeError(
                    f"degenerate minimum near x = {xs[i]:g}")
            pid = f"m{j}"
            minima.append((pid, value, second))
        else:
            if second >= 0:
                raise DegenerateLandscapeError(
                    f"degenerate maximum near x = {xs[i]:g}")
            pid = f"s{j}"
            saddles.append((pid, value, -second, -second,
                            (f"m{j}", f"m{j + 1}")))
        positions[pid] = x_star

    if eps_level is None:
        scale = max(1.0, float(np.max(np.abs(phis))))
        floor = 64 * np.finfo(float).eps * scale
        eps_level = max(10.0 * max(uncertainties), floor)
    return CriticalStructure(minima, saddles, eps_level, positions=positions)
