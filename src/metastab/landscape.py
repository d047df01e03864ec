"""Landscape ingestion.

Two input modes produce the same in-memory object, a :class:`CriticalStructure`:

* abstract mode, a JSON document listing minima and separating saddles with
  their Hessian scalars and connectivity, and
* sampled mode, a 1D potential given as (x, phi) samples from which critical
  points are extracted.

Only scalar Hessian data is kept (|det Hess phi| and, for saddles, the modulus
of the negative eigenvalue): nothing downstream needs more than
|det Hess|^(1/4) and the square root of the negative eigenvalue.
"""

import json
import math
import os
from bisect import bisect_left
from typing import NamedTuple

import numpy as np

from .errors import DegenerateLandscapeError, InputDataError

DEFAULT_LEVEL_TOL = 1e-9


class Minimum(NamedTuple):
    id: str
    phi: float
    det_hess: float


class Saddle(NamedTuple):
    id: str
    phi: float
    det_hess: float
    neg_eig: float
    joins: tuple  # pair of minimum ids, one per side of the saddle


class LevelIndex:
    """Clusters a set of real values into discrete levels.

    Values whose sorted neighbors differ by at most ``eps`` are chained into
    one cluster. All equality and ordering decisions on potential values go
    through cluster indices, which keeps the comparisons transitive.
    """

    def __init__(self, values, eps):
        self.eps = float(eps)
        vals = np.sort(np.asarray(list(values), dtype=float))
        if vals.size == 0:
            raise InputDataError("no values to cluster")
        reps = []
        members = []
        start = 0
        for i in range(1, vals.size + 1):
            if i == vals.size or vals[i] - vals[i - 1] > self.eps:
                chunk = vals[start:i]
                reps.append(float(chunk.mean()))
                members.append((float(chunk[0]), float(chunk[-1])))
                start = i
        self.reps = reps
        self.spans = members
        # decision boundaries halfway between adjacent cluster spans
        self._cuts = [
            0.5 * (members[k][1] + members[k + 1][0]) for k in range(len(reps) - 1)
        ]

    def of(self, value):
        """Cluster index of ``value`` (nearest cluster)."""
        return bisect_left(self._cuts, float(value))

    def rep(self, k):
        return self.reps[k]

    def __len__(self):
        return len(self.reps)


class CriticalStructure:
    """A validated Morse landscape skeleton.

    Parameters
    ----------
    minima, saddles : sequences of Minimum / Saddle
    level_tolerance : float
        Absolute tolerance used to decide equality of potential values.
    positions : dict, optional
        1D coordinates by id, kept when the structure came from samples.
    """

    def __init__(self, minima, saddles, level_tolerance=DEFAULT_LEVEL_TOL,
                 positions=None):
        self.minima = tuple(sorted((Minimum(*m) for m in minima), key=lambda m: m.id))
        self.saddles = tuple(
            sorted((Saddle(s[0], s[1], s[2], s[3], tuple(s[4])) for s in saddles),
                   key=lambda s: s.id))
        self.level_tolerance = float(level_tolerance)
        self.positions = dict(positions) if positions else None
        self._validate()
        self.levels = LevelIndex(
            [m.phi for m in self.minima] + [s.phi for s in self.saddles],
            self.level_tolerance)
        self._check_levels()

    # -- lookups ---------------------------------------------------------

    def minimum(self, mid):
        return self._min_by_id[mid]

    def saddle(self, sid):
        return self._sad_by_id[sid]

    def is_saddle(self, pid):
        return pid in self._sad_by_id

    # -- validation ------------------------------------------------------

    def _validate(self):
        if not self.minima:
            raise InputDataError("structure has no minima")
        if not math.isfinite(self.level_tolerance):
            raise InputDataError("level_tolerance must be finite")
        if self.level_tolerance < 0:
            raise InputDataError("level_tolerance must be nonnegative")
        ids = [p.id for p in self.minima] + [p.id for p in self.saddles]
        if len(set(ids)) != len(ids):
            raise InputDataError("duplicate critical point ids")
        self._min_by_id = {m.id: m for m in self.minima}
        self._sad_by_id = {s.id: s for s in self.saddles}
        for m in self.minima:
            if not (math.isfinite(m.phi) and math.isfinite(m.det_hess)):
                raise InputDataError(
                    f"minimum {m.id}: phi and det_hess must be finite")
            if not (m.det_hess > 0):
                raise InputDataError(f"minimum {m.id}: det_hess must be > 0")
        for s in self.saddles:
            if not all(map(math.isfinite, (s.phi, s.det_hess, s.neg_eig))):
                raise InputDataError(
                    f"saddle {s.id}: phi and Hessian data must be finite")
            if not (s.det_hess > 0 and s.neg_eig > 0):
                raise InputDataError(f"saddle {s.id}: Hessian data must be > 0")
            a, b = s.joins
            if a == b:
                raise InputDataError(
                    f"saddle {s.id} joins the same representative twice")
            for mid in (a, b):
                if mid not in self._min_by_id:
                    raise InputDataError(
                        f"saddle {s.id} joins unknown minimum {mid!r}")

    def _check_levels(self):
        for s in self.saddles:
            ls = self.levels.of(s.phi)
            for mid in s.joins:
                if self.levels.of(self.minimum(mid).phi) >= ls:
                    raise InputDataError(
                        f"saddle {s.id} is not above joined minimum {mid} "
                        "(within level tolerance)")


def structure_to_dict(cs):
    """Serialize a structure back to the document form of load_structure."""
    return {
        "level_tolerance": cs.level_tolerance,
        "minima": [
            {"id": m.id, "phi": m.phi, "det_hess": m.det_hess} for m in cs.minima
        ],
        "saddles": [
            {"id": s.id, "phi": s.phi, "det_hess": s.det_hess,
             "neg_eig": s.neg_eig, "joins": list(s.joins)}
            for s in cs.saddles
        ],
    }


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
    if not isinstance(doc, dict):
        raise InputDataError("structure document must be a JSON object")

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
    minima = []
    for entry in _req(doc, "minima", list, "document"):
        if not isinstance(entry, dict):
            raise InputDataError("minima entries must be objects")
        minima.append(Minimum(
            str(_req(entry, "id", str, "minimum")),
            _num(entry, "phi", "minimum"),
            _num(entry, "det_hess", "minimum"),
        ))
    saddles = []
    for entry in doc.get("saddles", []):
        if not isinstance(entry, dict):
            raise InputDataError("saddle entries must be objects")
        joins = _req(entry, "joins", list, "saddle")
        if len(joins) != 2 or not all(isinstance(j, str) for j in joins):
            raise InputDataError("saddle joins must be a pair of minimum ids")
        saddles.append(Saddle(
            str(_req(entry, "id", str, "saddle")),
            _num(entry, "phi", "saddle"),
            _num(entry, "det_hess", "saddle"),
            _num(entry, "neg_eig", "saddle"),
            (joins[0], joins[1]),
        ))
    cs = CriticalStructure(minima, saddles, tol)
    # separating condition needs the merge tree; deferred import avoids a cycle
    from .topology import verify_separating
    verify_separating(cs)
    return cs


# ---------------------------------------------------------------------------
# sampled 1D potentials


class SampledPotential(NamedTuple):
    xs: np.ndarray
    phis: np.ndarray
    boundary_growth: bool = False


def load_samples(path, boundary_growth=False):
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
    if len(rows) < 5:
        raise InputDataError("need at least 5 samples")
    xs = np.array([r[0] for r in rows])
    phis = np.array([r[1] for r in rows])
    return make_sampled(xs, phis, boundary_growth)


def make_sampled(xs, phis, boundary_growth=False):
    xs = np.asarray(xs, dtype=float)
    phis = np.asarray(phis, dtype=float)
    if xs.ndim != 1 or xs.shape != phis.shape:
        raise InputDataError("xs and phis must be 1D arrays of equal length")
    if xs.size < 5:
        raise InputDataError("need at least 5 samples")
    if not np.all(np.diff(xs) > 0):
        raise InputDataError("xs must be strictly increasing")
    if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(phis))):
        raise InputDataError("samples must be finite")
    return SampledPotential(xs, phis, bool(boundary_growth))


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
    an edge) unless ``boundary_growth`` is set.
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
    if not p.boundary_growth:
        if phis[0] < phis[1] or phis[-1] < phis[-2]:
            raise DegenerateLandscapeError(
                "potential slopes downward at an edge (non-confining); "
                "set boundary_growth to override")

    kinds = []  # (index, 'min'|'max') in x order
    for i in range(1, n - 1):
        left, mid, right = phis[i - 1], phis[i], phis[i + 1]
        if mid < left and mid < right:
            kinds.append((i, "min"))
        elif mid > left and mid > right:
            kinds.append((i, "max"))

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
            minima.append(Minimum(mid, value, second))
            positions[mid] = x_star
            if pending is not None:
                sid, sval, ssec, left_id = pending
                saddles.append(Saddle(sid, sval, ssec, ssec, (left_id, mid)))
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
