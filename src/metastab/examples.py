"""Bundled example landscapes.

Each bundle carries one canonical numeric realization of the ordinal
constraints that define it (which levels tie, which sit above which), plus
the closed-form reference values the analysis should reproduce. The
realization numbers themselves are conventional choices; only their order
relations and the Hessian data matter for the outputs quoted here.
"""

import math
from typing import NamedTuple

import numpy as np

from .errors import InputDataError
from .landscape import CriticalStructure, make_sampled


class ExampleBundle(NamedTuple):
    name: str
    structure: object          # CriticalStructure, or None when sampled
    potential: object          # SampledPotential, or None
    realization: dict          # the numeric choices made
    reference: dict            # closed-form values the run should reproduce
    validate_h: tuple          # h schedule for the direct check, or ()


def _chain_structure():
    """Four minima, two at the same depth, all three saddles at one level.

    The two equal minima m21, m22 form a class coupled through their shared
    saddle, with a second saddle leaking to the global well; m23 stays a
    singleton class.
    """
    minima = [("m11", 0.0, 1.0), ("m21", 0.5, 1.0),
              ("m22", 0.5, 1.0), ("m23", 1.0, 1.0)]
    saddles = [("s1", 2.0, 1.0, 1.0, ("m21", "m22")),
               ("s2", 2.0, 1.0, 1.0, ("m22", "m11")),
               ("s3", 2.0, 1.0, 1.0, ("m23", "m11"))]
    return CriticalStructure(minima, saddles)


def ex_a():
    golden = math.sqrt(5.0) / 2.0
    return ExampleBundle(
        "ex-a", _chain_structure(), None,
        {"phi_minima": {"m11": 0.0, "m21": 0.5, "m22": 0.5, "m23": 1.0},
         "saddle_level": 2.0, "hessians": "unit"},
        {"classes": [
            {"members": ["m11"], "pi_zeta2": [0.0]},
            {"members": ["m21", "m22"], "S": [1.5],
             "pi_zeta2": [1.5 - golden, 1.5 + golden]},
            {"members": ["m23"], "S": [1.0], "pi_zeta2": [1.0]}]},
        ())


def ex_b(theta=1.0):
    """A three-member class with two barrier heights.

    The chain m21 - m22 - m23 - m11 has all saddles at one level; the exit
    saddle carries Hessian data theta^4, which feeds the parameter
    nu = 1/(1+theta^2) into the reduced second-level matrix.
    """
    if not theta > 0:
        raise InputDataError("theta must be positive")
    t4 = float(theta) ** 4
    minima = [("m11", 0.0, 1.0), ("m21", 0.5, 1.0),
              ("m22", 0.5, 1.0), ("m23", 1.0, 1.0)]
    saddles = [("s1", 2.0, 1.0, 1.0, ("m21", "m22")),
               ("s2", 2.0, 1.0, 1.0, ("m22", "m23")),
               ("s3", 2.0, t4, t4, ("m23", "m11"))]
    nu = 1.0 / (1.0 + theta ** 2)
    disc = math.sqrt((3.0 - nu) ** 2 - 4.0 * (1.0 - nu))
    return ExampleBundle(
        "ex-b", CriticalStructure(minima, saddles), None,
        {"phi_minima": {"m11": 0.0, "m21": 0.5, "m22": 0.5, "m23": 1.0},
         "saddle_level": 2.0, "theta": float(theta),
         "hessians": "unit except the exit saddle (theta^4)"},
        {"nu": nu,
         "classes": [
             {"members": ["m11"], "pi_zeta2": [0.0]},
             {"members": ["m21", "m22", "m23"],
              "S": [1.0, 1.5],
              "pi_zeta2_by_level": [
                  [1.0 + theta ** 2],
                  [(3.0 - nu - disc) / 2.0, (3.0 - nu + disc) / 2.0]]}]},
        ())


def ex_c(n=4):
    """A ring of n equal minima joined by n equal saddles.

    The nonzero spectrum is that of the cycle graph Laplacian: the computed
    pi * zeta^2 multiset is {2(1 - cos(2 pi k / n)), k = 1..n-1}, with the
    k and n-k values exactly degenerate.
    """
    if n < 3:
        raise InputDataError("the ring needs at least 3 minima")
    width = len(str(n))
    ids = [f"m{j + 1:0{width}d}" for j in range(n)]
    minima = [(mid, 0.0, 1.0) for mid in ids]
    saddles = [(f"s{j + 1:0{width}d}", 1.0, 1.0, 1.0,
                (ids[j], ids[(j + 1) % n])) for j in range(n)]
    ref = sorted(2.0 - 2.0 * math.cos(2.0 * math.pi * k / n)
                 for k in range(1, n))
    return ExampleBundle(
        "ex-c", CriticalStructure(minima, saddles), None,
        {"n": n, "phi_minima": 0.0, "saddle_level": 1.0, "hessians": "unit"},
        {"pi_zeta2": ref, "S": 1.0},
        ())


def nine_wells():
    """The nine-minimum landscape used to exercise the full labelling.

    Three separating levels (40, 30, 20); the class at the top level has
    three barrier heights, and two of the five classes have multi-element
    same-level neighbourhoods feeding the prefactor weights.
    """
    mphi = {"m11": 0.0, "m21": 0.0, "m22": 8.0, "m23": 6.0, "m31": 10.0,
            "m32": 10.0, "m33": 6.0, "m34": 12.0, "m41": 0.0}
    joins = {"s1": (40.0, "m21", "m31"), "s2": (30.0, "m31", "m11"),
             "s3": (20.0, "m11", "m41"), "s4": (30.0, "m41", "m32"),
             "s5": (40.0, "m32", "m22"), "s6": (40.0, "m22", "m33"),
             "s7": (30.0, "m33", "m23"), "s8": (30.0, "m23", "m34")}
    minima = [(k, v, 1.0) for k, v in sorted(mphi.items())]
    saddles = [(k, lvl, 1.0, 1.0, (a, b))
               for k, (lvl, a, b) in sorted(joins.items())]
    return ExampleBundle(
        "nine-wells", CriticalStructure(minima, saddles), None,
        {"phi_minima": mphi,
         "saddle_levels": {k: v[0] for k, v in sorted(joins.items())},
         "hessians": "unit"},
        {"labels": {"m11": [1, 1], "m21": [2, 1], "m22": [2, 2],
                    "m23": [2, 3], "m31": [3, 1], "m32": [3, 2],
                    "m33": [3, 3], "m34": [3, 4], "m41": [4, 1]},
         "types": {"m21": "II", "m22": "I", "m23": "I", "m31": "I",
                   "m32": "I", "m33": "II", "m34": "I", "m41": "II"},
         "classes": [
             {"members": ["m11"]},
             {"members": ["m21", "m22", "m23"], "type": "II",
              "S": [32.0, 34.0, 40.0]},
             {"members": ["m31"], "type": "I", "S": [20.0]},
             {"members": ["m32"], "type": "I", "S": [20.0]},
             {"members": ["m33", "m34"], "type": "II", "S": [18.0, 24.0]},
             {"members": ["m41"], "type": "II", "S": [20.0]}]},
        ())


def _double_well_samples():
    xs = np.linspace(-2.5, 2.5, 2501)
    return make_sampled(xs, (xs ** 2 - 1.0) ** 2)


def double_well():
    """(x^2-1)^2 sampled on [-2.5, 2.5].

    One exponentially small eigenvalue, lambda = (8 sqrt(2) / pi) h e^(-2/h):
    barrier height 1 from either well to the top, curvatures 8 at the wells
    and -4 at the top.
    """
    zeta2 = 8.0 * math.sqrt(2.0) / math.pi
    return ExampleBundle(
        "double-well", None, _double_well_samples(),
        {"potential": "(x^2-1)^2", "domain": [-2.5, 2.5], "samples": 2501},
        {"zeta2": zeta2, "S": 1.0,
         "lambda_form": "h * zeta2 * exp(-2/h)"},
        (0.15, 0.10, 0.07))


def _hermite_end(t, s, data, m):
    """The share of one end in a two-point Hermite interpolant on [0, 1].

    ``t`` is the distance from this end and ``s = 1 - t``; ``data`` lists
    this end's value and derivatives as Taylor coefficients toward the
    other end (``_taylor``), and the other end has ``m`` conditions. The
    k-th basis polynomial is t^k s^m times the first n - k terms of the
    series of (1 - t)^(-m), n = len(data), so it holds the k-th condition
    here and all m there. Evaluated in +, -, * and / only, factored as
    that product, which keeps its rounding to a few ulps of the values.
    """
    sm = s
    for _ in range(m - 1):
        sm = sm * s
    total, tk = 0.0, 1.0
    for k, d in enumerate(data):
        series = 0.0
        for i in range(len(data) - 1 - k, -1, -1):
            series = series * t + math.comb(m - 1 + i, i)
        total = total + d * (tk * sm * series)
        tk = tk * t
    return total


def _taylor(data, step):
    """Value and derivatives ``data`` as Taylor coefficients for a step of
    ``step``: the k-th times step^k / k!."""
    out, scale = [], 1.0
    for k, d in enumerate(data):
        out.append(d * scale)
        scale = scale * step / (k + 1)
    return out


# ex-a's chain laid along a line: the critical points two apart, minima and
# saddles alternating, curvature magnitudes one, with slopes of magnitude 3
# at the domain's ends, whose walls rise to phi = 4
_CHAIN_X = [0.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0]
_CHAIN_PHI = [0.5, 2.0, 0.5, 2.0, 0.0, 2.0, 1.0]
_CHAIN_CURV = [1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0]
_CHAIN_ENDS = ((-2.5, 4.0, -3.0), (14.5, 4.0, 3.0))
_CHAIN_SAMPLES = 8501


def chain_sampled():
    """A smooth 1D realization of the chain structure from ex-a.

    Two-point Hermite interpolation through the critical points with unit
    curvature magnitudes, so the extracted structure reproduces ex-a's data
    and the predictions can be checked against a direct solve. Each piece
    between critical points matches value and first four derivatives at
    both ends (degree 9); the two end pieces match value and slope at the
    domain's ends (degree 6). This is the interpolant of SciPy's
    ``BPoly.from_derivatives`` on the same data, evaluated here in plain
    arithmetic, with no power or library function, so the samples round
    alike on every CPU.
    """
    (lo, phi_lo, slope_lo), (hi, phi_hi, slope_hi) = _CHAIN_ENDS
    # third and fourth derivatives pinned to zero at every critical point, so
    # quartic fits through sampled values recover the curvatures cleanly; the
    # wide spacing keeps the interpolant's high derivatives small, which is
    # what makes the finite-h corrections modest
    knots = [lo] + _CHAIN_X + [hi]
    data = ([[phi_lo, slope_lo]]
            + [[v, 0.0, c, 0.0, 0.0] for v, c in zip(_CHAIN_PHI, _CHAIN_CURV)]
            + [[phi_hi, slope_hi]])
    xs = np.linspace(lo, hi, _CHAIN_SAMPLES)
    piece = np.minimum(np.searchsorted(knots, xs, side="right") - 1,
                       len(knots) - 2)
    phis = np.empty_like(xs)
    for i, (a, b) in enumerate(zip(knots, knots[1:])):
        sel = piece == i
        u = (xs[sel] - a) / (b - a)
        w = 1.0 - u
        # in the piece's own coordinates: u runs from the left end, w from
        # the right, each over a length b - a
        left, right = _taylor(data[i], b - a), _taylor(data[i + 1], a - b)
        phis[sel] = (_hermite_end(u, w, left, len(right))
                     + _hermite_end(w, u, right, len(left)))
    return make_sampled(xs, phis)


def chain():
    """ex-a's chain as the smooth potential of ``chain_sampled``.

    The extraction finds ex-a's structure, so the reference is ex-a's
    closed forms; the run validates them against the operator at the
    benchmark's h schedule.
    """
    x, phi, slope = zip(*_CHAIN_ENDS)
    return ExampleBundle(
        "chain", None, chain_sampled(),
        {"potential": "two-point Hermite interpolant of the critical points",
         "realizes": "ex-a",
         "x_minima": {"m21": 0.0, "m22": 4.0, "m11": 8.0, "m23": 12.0},
         "critical_points": {"x": _CHAIN_X, "phi": _CHAIN_PHI,
                             "phi''": _CHAIN_CURV},
         "domain": list(x), "ends": {"phi": list(phi), "phi'": list(slope)},
         "samples": _CHAIN_SAMPLES},
        ex_a().reference,
        (0.3, 0.2, 0.15))


_BUILDERS = {"ex-a": ex_a, "ex-b": ex_b, "ex-c": ex_c,
             "nine-wells": nine_wells, "double-well": double_well,
             "chain": chain}


def example_names():
    return sorted(_BUILDERS)


def build_example(name, n=None, theta=None):
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise InputDataError(
            f"unknown example {name!r}; available: {', '.join(example_names())}")
    if name == "ex-c":
        return builder(4 if n is None else int(n))
    if name == "ex-b":
        return builder(1.0 if theta is None else float(theta))
    if n is not None or theta is not None:
        raise InputDataError(f"example {name!r} takes no parameters")
    return builder()
