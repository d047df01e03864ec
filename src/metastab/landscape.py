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
import re
from contextlib import suppress
from itertools import chain
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from .errors import DegenerateLandscapeError, InputDataError
from .topology import verify_separating

DEFAULT_LEVEL_TOL = 1e-9
# Least and most x that five consecutive samples may span: the quartic fit
# of an extremum (``_fit_extrema``) raises that span and its inverse to the
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
    # the representative is printed, so it is NumPy's mean bit for bit: a
    # lone value is added to the sum's +0 start (-0 becomes 0). Under 8
    # values NumPy sums left to right from +0, so the tie clusters of each
    # such size are summed a column at a time; from 8 on it sums pairwise.
    # A mean of three or more values can round past the cluster's span,
    # onto the next level; only such a mean is replaced, by the nearer end
    bounds = np.concatenate(([0], starts, [vals.size]))
    sizes = np.diff(bounds)
    reps = ordered[bounds[:-1]] + 0.0
    for m in range(2, 8):
        ks = np.flatnonzero(sizes == m)
        cols = ordered[bounds[ks, None] + np.arange(m)].T
        total = cols[0] + 0.0
        for col in cols[1:]:
            total += col
        reps[ks] = total / m
    for k in np.flatnonzero(sizes >= 8).tolist():
        reps[k] = np.mean(ordered[bounds[k]:bounds[k + 1]])
    lo, hi = ordered[bounds[:-1]], ordered[bounds[1:] - 1]
    reps = np.where(reps < lo, lo, np.where(reps > hi, hi, reps))
    return cluster.tolist(), reps.tolist()


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


def _walk_samples(path, text):
    """The samples of ``text`` read line by line, naming the first faulty
    line: blank lines are skipped, and line 1 may be a header."""
    xy = []
    for lineno, line in enumerate(text.split("\n"), 1):
        parts = line.strip().split(",")
        if parts == [""]:
            continue
        if len(parts) != 2:
            raise InputDataError(
                f"{path}:{lineno}: expected two comma-separated columns")
        try:
            xy += float(parts[0]), float(parts[1])
        except ValueError:
            if lineno > 1:
                raise InputDataError(
                    f"{path}:{lineno}: non-numeric sample") from None
    return np.array(xy, dtype=float)


# a whitespace-only line after the first, and a line with two commas
_BLANK_LINE = re.compile(r"\n[^\S\n]*(?=\n|\Z)")
_TWO_COMMAS = re.compile(r",.*,")
_BLOCK = 1 << 20            # characters of a CSV split into fields at once


def _field_blocks(text):
    """The fields of ``text``, split at commas and line ends, in lists of
    those of about ``_BLOCK`` characters of whole lines."""
    start = 0
    while start <= len(text):
        end = text.find("\n", start + _BLOCK)
        end = len(text) if end < 0 else end
        yield text[start:end].replace("\n", ",").split(",")
        start = end + 1


def load_samples(path):
    """Read a two-column x,phi CSV (header optional).

    Blank and whitespace-only lines are skipped, and line 1 may be a header:
    two fields that are not both numbers. Fields are read as Python's
    ``float`` reads them. A UTF-8 byte-order mark is dropped, so that it
    does not turn a headerless first line into a header.
    """
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            text = fh.read()
    except OSError as exc:
        raise InputDataError(f"cannot read samples: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputDataError(f"{path}: samples are not UTF-8: {exc}") from exc
    end = text.find("\n")
    first = text[:end] if end >= 0 else text
    if first.strip() and not _walk_samples(path, first).size:
        text, first = text[len(first):], ""             # header
    # with one comma on every non-blank line the fields pair up by line,
    # and one conversion, a block of lines at a time, checks them all; on
    # a fault the line walk names it
    rows = (text.count("\n") + 1 - (not first.strip())
            - len(_BLANK_LINE.findall(text)))
    xy = None
    if text.count(",") == rows and not _TWO_COMMAS.search(text):
        fields = filter(str.strip, chain.from_iterable(_field_blocks(text)))
        with suppress(ValueError):
            xy = np.fromiter(map(float, fields), float, 2 * rows)
    if xy is None:
        xy = _walk_samples(path, text)
    return make_sampled(xy[0::2], xy[1::2])


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


# Stencil of an extremum, ordered from the sample outward: indices into
# its five samples when the sample is the second, third or fourth of them
_STENCIL = np.array([[1, 0, 2, 3, 4], [2, 1, 3, 0, 4], [3, 2, 4, 1, 0]])
# A fitted curvature within CURVATURE_FLOOR * eps * max|y_k - y_i| / dx^2 of
# zero is rounding, and the extremum degenerate (y_k the stencil's samples,
# y_i the extremum's, dx their mean spacing). At a quartic minimum off the
# sample grid, such as (x - dx/3)^4, the slope has a triple root, which
# rounding moves by about eps^(1/3) dx; the curvature there then reads up to
# about 0.4 eps^(2/3) max|y_k - y_i| / dx^2, 4e4 times eps. The floor,
# 2^20 eps = 2^-32, is about 6 eps^(2/3).
CURVATURE_FLOOR = 2.0 ** 20
_NEWTON_STEPS = 100


def _fit_extrema(xs, phis, at):
    """Refine the sampled extrema ``at`` by local quartic interpolation.

    The quartic through the five samples around each extremum is built from
    divided differences and expanded in powers of t = x - x_i. The refined
    point is the real root of its derivative within max|t| over the stencil
    that lies nearest the sample: the zeros of the second derivative split
    that interval into pieces where the derivative is monotone, and a
    safeguarded Newton iteration finds its root on each piece. Without such
    a root the vertex of the parabola through the sample and its two
    neighbors stands in. Only +, -, *, / and sqrt are used, elementwise, so
    every CPU gives the same bits.

    Returns arrays (x_star, value, second_derivative, value_uncertainty,
    curvature_floor). The uncertainty is the gap between the quartic's
    value and the parabola's vertex value, an a posteriori estimate of the
    sampling error on the critical value.
    """
    i = np.asarray(at)
    lo = np.clip(i - 2, 0, xs.size - 5)
    idx = lo[:, None] + _STENCIL[i - lo - 1]
    t = xs[idx] - xs[i][:, None]                # t[:, 0] is 0
    y = phis[idx]
    half = np.maximum(-t.min(axis=1), t.max(axis=1))
    dx = (xs[lo + 4] - xs[lo]) / 4
    with np.errstate(all="ignore"):
        floor = (CURVATURE_FLOOR * np.finfo(float).eps
                 * np.abs(y - y[:, :1]).max(axis=1) / (dx * dx))
        # divided differences, then p(t) = y_i + t (c1 + t (c2 + t (c3 + t c4)))
        a = y.copy()
        for j in range(1, 5):
            a[:, j:] = (a[:, j:] - a[:, j - 1:-1]) / (t[:, j:] - t[:, :-j])
        c = [a[:, 4]]
        for k in (3, 2, 1):
            z = t[:, k]
            c = ([a[:, k] - z * c[0]]
                 + [c[j] - z * c[j + 1] for j in range(len(c) - 1)] + [c[-1]])
        c1, c2, c3, c4 = c

        def slope(s):
            return c1 + s * (2 * c2 + s * (3 * c3 + s * (4 * c4)))

        def curvature(s):
            return 2 * c2 + s * (6 * c3 + s * (12 * c4))

        # zeros of the curvature, a quadratic, cut [-half, half] into three
        # pieces (some empty) on each of which the slope is monotone
        qa, qb, qc = 12 * c4, 6 * c3, 2 * c2
        # (the stable form, which also gives the root of a linear one)
        q = -0.5 * (qb + np.copysign(np.sqrt(qb * qb - 4 * qa * qc), qb))
        cuts = np.stack([q / qa, qc / q])
        cuts = np.sort(np.where(np.abs(cuts) < half, cuts, -half), axis=0)
        edges = np.concatenate([-half[None], cuts, half[None]])
        left, right = edges[:-1], edges[1:]
        # orient each piece so that the slope rises from <= 0 to >= 0
        sign = np.where(slope(left) <= 0, 1.0, -1.0)
        has = sign * slope(right) >= 0
        x = np.clip(0.0, left, right)
        for _ in range(_NEWTON_STEPS):
            d = slope(x)
            g = sign * d
            left = np.where(g <= 0, x, left)
            right = np.where(g >= 0, x, right)
            step = x - d / curvature(x)
            step = np.where((step > left) & (step < right), step,
                            left + (right - left) / 2)
            moved = (step != x) & (g != 0) & has
            if not moved.any():
                break
            x = np.where(moved, step, x)
        dist = np.where(has, np.abs(x), np.inf)
        root = np.take_along_axis(x, dist.argmin(axis=0)[None], 0)[0]
        real = np.isfinite(dist.min(axis=0))

        # the parabola through the sample and its two neighbors, the first
        # three terms of the quartic's Newton form: y_i + t (b + t a2)
        a2 = a[:, 2]
        b = a[:, 1] - a2 * t[:, 1]
        t_par = np.where(a2 == 0, 0.0, -b / (2 * a2))
        v_par = y[:, 0] + t_par * (b + t_par * a2)
        s = np.where(real, root, t_par)
        value = np.where(real, y[:, 0] + s * (c1 + s * (c2 + s * (c3 + s * c4))),
                         v_par)
        second = np.where(real, curvature(s), 2 * a2)
    return xs[i] + s, value, second, np.abs(value - v_par), floor


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

    x_star, values, seconds, uncertainties, floors = _fit_extrema(xs, phis, at)
    # a curvature within the rounding floor, or of the wrong sign, is flat
    bad = np.flatnonzero(~(np.abs(seconds) > floors) | ((seconds > 0) != low))
    if bad.size:
        k = bad[0]
        raise DegenerateLandscapeError(
            f"degenerate {'minimum' if low[k] else 'maximum'} near "
            f"x = {xs[at[k]]:g}")
    # minimum j is the j-th even extremum, and saddle j the j-th odd one,
    # between minima j and j + 1
    ids = [f"{'ms'[k % 2]}{k // 2 + 1}" for k in range(len(at))]
    values, seconds = values.tolist(), seconds.tolist()
    minima = list(zip(ids[0::2], values[0::2], seconds[0::2]))
    saddles = [(sid, v, -second, -second, (f"m{j}", f"m{j + 1}"))
               for j, (sid, v, second) in enumerate(
                   zip(ids[1::2], values[1::2], seconds[1::2]), 1)]
    positions = dict(zip(ids, x_star.tolist()))

    if eps_level is None:
        scale = max(1.0, float(np.max(np.abs(phis))))
        floor = 64 * np.finfo(float).eps * scale
        eps_level = max(10.0 * float(uncertainties.max()), floor)
    return CriticalStructure(minima, saddles, eps_level, positions=positions)
