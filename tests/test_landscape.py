import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import Minimum, Saddle, minima, saddles
from metastab.errors import DegenerateLandscapeError, InputDataError
from metastab.landscape import (LevelIndex, CriticalStructure,
                                extract_critical_structure, load_samples,
                                load_structure, make_sampled,
                                structure_to_dict)


def _dw_samples(n=2001, lo=-2.0, hi=2.0):
    xs = np.linspace(lo, hi, n)
    return make_sampled(xs, (xs ** 2 - 1.0) ** 2)


# ---------------------------------------------------------------- LevelIndex


def test_level_index_chains_close_values():
    L = LevelIndex([1.0, 2e-10, 0.0, 1e-10], eps=1e-9)
    assert len(L.reps) == 2
    assert L.cluster == [1, 0, 0, 0]
    assert L.reps[0] == pytest.approx(1e-10)
    assert L.reps[1] == 1.0


def test_level_index_separates_distant_values():
    L = LevelIndex([0.5, 1.0, 0.0], eps=1e-9)
    assert len(L.reps) == 3
    assert L.cluster == [1, 2, 0]
    assert L.reps == [0.0, 0.5, 1.0]


def test_level_index_keeps_one_ulp_gaps():
    # a value one ulp above a cluster is a level of its own, at any
    # tolerance below the ulp; the halfway point between the two rounds onto
    # the upper value, so no lookup by cuts may decide it
    lo = 100000000.00000001
    hi = math.nextafter(lo, math.inf)
    assert 0.5 * (lo + hi) == hi
    for eps in (0.0, 1e-9):
        L = LevelIndex([hi, lo, hi, 0.0], eps=eps)
        assert L.cluster == [2, 1, 2, 0]
        assert L.reps == [0.0, lo, hi]


def test_level_index_representatives_match_numpy_mean():
    # representatives are printed, so each one must be the NumPy mean of its
    # cluster bit for bit, signed zeros included
    values = [-0.0, 0.3, 0.3 + 1e-10, 0.1 + 0.2, 0.7, -1.5]
    L = LevelIndex(values, eps=1e-9)
    clusters = [[-1.5], [-0.0], [0.3, 0.1 + 0.2, 0.3 + 1e-10], [0.7]]
    assert len(L.reps) == len(clusters)
    assert L.cluster == [1, 2, 2, 2, 3, 0]
    for k, chunk in enumerate(clusters):
        want = float(np.sort(np.array(chunk)).mean())
        assert math.copysign(1.0, L.reps[k]) == math.copysign(1.0, want)
        assert L.reps[k] == want


def test_level_index_empty():
    with pytest.raises(InputDataError, match="no values"):
        LevelIndex([], eps=1e-9)


# -------------------------------------------------------- structure checks


def _mk(minima, saddles, **kw):
    return CriticalStructure(minima, saddles, **kw)


def test_structure_rejects_no_minima():
    with pytest.raises(InputDataError, match="no minima"):
        _mk([], [])


def test_structure_rejects_negative_tolerance():
    with pytest.raises(InputDataError, match="nonnegative"):
        _mk([Minimum("m1", 0.0, 1.0)], [], level_tolerance=-1.0)


def test_structure_rejects_duplicate_ids():
    with pytest.raises(InputDataError, match="duplicate"):
        _mk([Minimum("m1", 0.0, 1.0), Minimum("m1", 1.0, 1.0)], [])


def test_structure_rejects_bad_hessians():
    with pytest.raises(InputDataError, match="det_hess must be > 0"):
        _mk([Minimum("m1", 0.0, 0.0)], [])
    with pytest.raises(InputDataError, match="Hessian data must be > 0"):
        _mk([Minimum("m1", 0.0, 1.0), Minimum("m2", 0.0, 1.0)],
            [Saddle("s1", 1.0, -1.0, 1.0, ("m1", "m2"))])


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_structure_rejects_non_finite_values(value):
    mins = [Minimum("m1", 0.0, 1.0), Minimum("m2", 0.0, 1.0)]
    sad = Saddle("s1", 1.0, 1.0, 1.0, ("m1", "m2"))
    with pytest.raises(InputDataError, match="level_tolerance must be finite"):
        _mk(mins, [sad], level_tolerance=value)
    for field in ("phi", "det_hess"):
        with pytest.raises(InputDataError, match="minimum m1: .* finite"):
            _mk([mins[0]._replace(**{field: value}), mins[1]], [sad])
    for field in ("phi", "det_hess", "neg_eig"):
        with pytest.raises(InputDataError, match="saddle s1: .* finite"):
            _mk(mins, [sad._replace(**{field: value})])


def test_structure_rejects_self_join():
    with pytest.raises(InputDataError, match="same representative twice"):
        _mk([Minimum("m1", 0.0, 1.0)],
            [Saddle("s1", 1.0, 1.0, 1.0, ("m1", "m1"))])


def test_structure_rejects_unknown_join():
    with pytest.raises(InputDataError, match="unknown minimum"):
        _mk([Minimum("m1", 0.0, 1.0)],
            [Saddle("s1", 1.0, 1.0, 1.0, ("m1", "mX"))])


def test_structure_rejects_saddle_below_minimum():
    with pytest.raises(InputDataError, match="not above joined minimum"):
        _mk([Minimum("m1", 0.0, 1.0), Minimum("m2", 2.0, 1.0)],
            [Saddle("s1", 1.0, 1.0, 1.0, ("m1", "m2"))])


def test_structure_saddle_equal_level_rejected_within_tolerance():
    # phi(s) == phi(m2) up to the declared tolerance counts as "not above"
    with pytest.raises(InputDataError, match="not above"):
        _mk([Minimum("m1", 0.0, 1.0), Minimum("m2", 1.0 - 1e-12, 1.0)],
            [Saddle("s1", 1.0, 1.0, 1.0, ("m1", "m2"))])


# ---------------------------------------------------------- load / round-trip


def _exa_doc():
    return {
        "level_tolerance": 1e-9,
        "minima": [
            {"id": "m11", "phi": 0.0, "det_hess": 1.0},
            {"id": "m21", "phi": 0.5, "det_hess": 1.0},
            {"id": "m22", "phi": 0.5, "det_hess": 1.0},
            {"id": "m23", "phi": 1.0, "det_hess": 1.0},
        ],
        "saddles": [
            {"id": "s1", "phi": 2.0, "det_hess": 1.0, "neg_eig": 1.0,
             "joins": ["m21", "m22"]},
            {"id": "s2", "phi": 2.0, "det_hess": 1.0, "neg_eig": 1.0,
             "joins": ["m22", "m11"]},
            {"id": "s3", "phi": 2.0, "det_hess": 1.0, "neg_eig": 1.0,
             "joins": ["m23", "m11"]},
        ],
    }


def test_load_structure_roundtrip_dict():
    cs = load_structure(_exa_doc())
    assert len(minima(cs)) == 4 and len(saddles(cs)) == 3
    assert structure_to_dict(cs) == _exa_doc()


def test_load_structure_json_string_and_path(tmp_path):
    text = json.dumps(_exa_doc())
    cs1 = load_structure(text)
    f = tmp_path / "exa.json"
    f.write_text(text)
    cs2 = load_structure(str(f))
    assert structure_to_dict(cs1) == structure_to_dict(cs2)


def test_load_structure_schema_errors(tmp_path):
    with pytest.raises(InputDataError, match="missing field 'minima'"):
        load_structure({"level_tolerance": 1e-9})
    with pytest.raises(InputDataError, match="wrong type"):
        load_structure({"minima": [{"id": "m1", "phi": "x", "det_hess": 1}]})
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    with pytest.raises(InputDataError, match="must be a JSON object"):
        load_structure(str(arr))
    with pytest.raises(InputDataError, match="pair of minimum ids"):
        doc = _exa_doc()
        doc["saddles"][0]["joins"] = ["m21"]
        load_structure(doc)
    bad = tmp_path / "bad.json"
    bad.write_text("not json at all")
    with pytest.raises(InputDataError, match="invalid JSON"):
        load_structure(str(bad))
    with pytest.raises(InputDataError, match="invalid JSON"):
        load_structure("{ nope")
    with pytest.raises(InputDataError, match="cannot read"):
        load_structure(str(tmp_path / "missing.json"))


def test_load_structure_checks_separating_condition():
    doc = _exa_doc()
    doc["saddles"].append({"id": "s4", "phi": 3.0, "det_hess": 1.0,
                           "neg_eig": 1.0, "joins": ["m21", "m22"]})
    with pytest.raises(InputDataError, match="already connected"):
        load_structure(doc)


# ------------------------------------------------------------- sampled input


def test_load_samples_with_header(tmp_path):
    xs = np.linspace(-2, 2, 11)
    f = tmp_path / "p.csv"
    f.write_text("x,phi\n" + "\n".join(f"{x},{x * x}" for x in xs) + "\n")
    p = load_samples(str(f))
    assert p.xs.size == 11
    assert np.allclose(p.phis, p.xs ** 2)


def test_load_samples_errors(tmp_path):
    f = tmp_path / "short.csv"
    f.write_text("0,0\n1,1\n2,4\n3,9\n")
    with pytest.raises(InputDataError, match="at least 5"):
        load_samples(str(f))
    g = tmp_path / "bad.csv"
    g.write_text("0,0\n1,oops\n2,4\n3,9\n4,16\n")
    with pytest.raises(InputDataError, match="non-numeric"):
        load_samples(str(g))
    h = tmp_path / "cols.csv"
    h.write_text("0,0,0\n")
    with pytest.raises(InputDataError, match="two comma-separated"):
        load_samples(str(h))
    with pytest.raises(InputDataError, match="cannot read"):
        load_samples(str(tmp_path / "absent.csv"))


def test_make_sampled_errors():
    xs = np.linspace(0, 1, 9)
    with pytest.raises(InputDataError, match="strictly increasing"):
        make_sampled(xs[::-1], xs)
    with pytest.raises(InputDataError, match="finite"):
        make_sampled(xs, np.where(xs > 0.5, np.inf, 0.0))
    with pytest.raises(InputDataError, match="samples must be finite"):
        make_sampled([0.0, np.nan, 2.0, 3.0, 4.0], xs[:5])
    with pytest.raises(InputDataError, match="equal length"):
        make_sampled(xs, xs[:-1])
    with pytest.raises(InputDataError, match="at least 5"):
        make_sampled(xs[:3], xs[:3])
    for scale in (1e200, 1e-200):
        with pytest.raises(InputDataError, match="sample spacing"):
            make_sampled(scale * xs, (xs - 0.5) ** 2)
    # differences beyond float range: inf, and no overflow warning
    for wide in ([-1.7e308, -1e308, 0.0, 1e308, 1.7e308],
                 [-1.7e308, 1e308, 1.1e308, 1.2e308, 1.3e308]):
        with pytest.raises(InputDataError, match="sample spacing"):
            make_sampled(wide, xs[:5])


# ------------------------------------------------------------- extraction


def test_extract_double_well():
    cs = extract_critical_structure(_dw_samples())
    assert [m.id for m in minima(cs)] == ["m1", "m2"]
    assert [s.id for s in saddles(cs)] == ["s1"]
    # the sample is an exact quartic, so the 5-point fits are exact up to
    # rounding
    for m in minima(cs):
        assert m.phi == pytest.approx(0.0, abs=1e-10)
        assert m.det_hess == pytest.approx(8.0, rel=1e-8)
    s = saddles(cs)[0]
    assert s.phi == pytest.approx(1.0, rel=1e-10)
    assert s.neg_eig == pytest.approx(4.0, rel=1e-8)
    assert s.det_hess == s.neg_eig
    assert s.joins == ("m1", "m2")
    assert cs.positions["m1"] == pytest.approx(-1.0, abs=1e-9)
    assert cs.positions["m2"] == pytest.approx(1.0, abs=1e-9)
    assert cs.positions["s1"] == pytest.approx(0.0, abs=1e-9)


def test_extract_single_well():
    xs = np.linspace(-2, 2, 801)
    cs = extract_critical_structure(make_sampled(xs, xs ** 2))
    assert len(minima(cs)) == 1 and len(saddles(cs)) == 0
    assert minima(cs)[0].det_hess == pytest.approx(2.0, rel=1e-8)


def test_extract_alternation_and_counts():
    xs = np.linspace(-4, 4, 4001)
    phis = xs ** 2 / 4 + 0.5 * np.sin(3 * xs) + 0.3 * np.cos(7 * xs)
    cs = extract_critical_structure(make_sampled(xs, phis))
    assert len(minima(cs)) == len(saddles(cs)) + 1
    pts = sorted(cs.positions.items(), key=lambda kv: kv[1])
    kinds = [pid[0] for pid, _ in pts]
    assert kinds == ["m", "s"] * len(saddles(cs)) + ["m"]


def test_extract_rejects_plateau():
    xs = np.linspace(0, 5, 6)
    with pytest.raises(DegenerateLandscapeError, match="plateau"):
        extract_critical_structure(make_sampled(xs, [4, 1, 1, 1, 2, 5]))


def test_extract_rejects_flat_extremum():
    xs = np.linspace(0, 5, 6)
    with pytest.raises(DegenerateLandscapeError, match="flat extremum"):
        extract_critical_structure(make_sampled(xs, [2, 1, 0, 0, 1, 2]))


def test_extract_rejects_non_confining_edge():
    xs = np.linspace(0, 4, 41)
    with pytest.raises(DegenerateLandscapeError, match="non-confining"):
        extract_critical_structure(make_sampled(xs, xs))


def test_extract_boundary_growth_override():
    # confining at both edges, yet no strict interior extremum: the equal
    # pairs at the edges are flat shoulders, not wells
    xs = np.linspace(0, 4, 5)
    with pytest.raises(DegenerateLandscapeError, match="no interior extrema"):
        extract_critical_structure(make_sampled(xs, [0, 0, 1, 2, 2]))


def test_extract_rejects_outer_maxima():
    # confining edges, but the only interior extremum is a maximum
    xs = np.linspace(0, 5, 6)
    with pytest.raises(DegenerateLandscapeError, match="outermost extrema"):
        extract_critical_structure(make_sampled(xs, [0, 0, 1, 0, 1, 1]))


def test_extract_rejects_degenerate_minimum():
    xs = np.linspace(-1, 1, 201)
    with pytest.raises(DegenerateLandscapeError, match="degenerate minimum"):
        extract_critical_structure(make_sampled(xs, xs ** 4))


@given(st.floats(min_value=-5.0, max_value=5.0, allow_nan=False))
def test_extract_shift_equivariance(c):
    base = extract_critical_structure(_dw_samples(n=801))
    shifted = extract_critical_structure(
        make_sampled(_dw_samples(n=801).xs, _dw_samples(n=801).phis + c))
    assert [m.id for m in minima(shifted)] == [m.id for m in minima(base)]
    assert ([s.joins for s in saddles(shifted)]
            == [s.joins for s in saddles(base)])
    for a, b in zip(minima(shifted), minima(base)):
        assert a.phi - b.phi == pytest.approx(c, abs=1e-9)
        assert a.det_hess == pytest.approx(b.det_hess, rel=1e-9)
    for a, b in zip(saddles(shifted), saddles(base)):
        assert a.phi - b.phi == pytest.approx(c, abs=1e-9)
        assert a.neg_eig == pytest.approx(b.neg_eig, rel=1e-9)
