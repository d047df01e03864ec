import json
import math
import os
import random
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from conftest import Minimum, Saddle, minima, run_python, saddles
from extract_oracle import _curvature_floor
from extract_oracle import extract_critical_structure as oracle_extract
from metastab import landscape
from metastab.errors import DegenerateLandscapeError, InputDataError
from metastab.landscape import (CriticalStructure, cluster_levels,
                                extract_critical_structure, load_samples,
                                load_structure, make_sampled,
                                structure_to_dict)


def _dw_samples(n=2001, lo=-2.0, hi=2.0):
    xs = np.linspace(lo, hi, n)
    return make_sampled(xs, (xs ** 2 - 1.0) ** 2)


# ----------------------------------------------------------- cluster_levels


def test_level_index_chains_close_values():
    cluster, reps = cluster_levels([1.0, 2e-10, 0.0, 1e-10], eps=1e-9)
    assert len(reps) == 2
    assert cluster == [1, 0, 0, 0]
    assert reps[0] == pytest.approx(1e-10)
    assert reps[1] == 1.0


def test_level_index_separates_distant_values():
    cluster, reps = cluster_levels([0.5, 1.0, 0.0], eps=1e-9)
    assert len(reps) == 3
    assert cluster == [1, 2, 0]
    assert reps == [0.0, 0.5, 1.0]


def test_level_index_keeps_one_ulp_gaps():
    # a value one ulp above a cluster is a level of its own, at any
    # tolerance below the ulp; the halfway point between the two rounds onto
    # the upper value, so no lookup by cuts may decide it
    lo = 100000000.00000001
    hi = math.nextafter(lo, math.inf)
    assert 0.5 * (lo + hi) == hi
    for eps in (0.0, 1e-9):
        cluster, reps = cluster_levels([hi, lo, hi, 0.0], eps=eps)
        assert cluster == [2, 1, 2, 0]
        assert reps == [0.0, lo, hi]


def _clamped_mean(chunk):
    """NumPy's mean of a cluster in stable sorted order, replaced by the
    nearer end of the cluster's span only when it rounds outside."""
    chunk = np.sort(np.asarray(chunk, dtype=float), kind="stable")
    mean = float(np.mean(chunk))
    lo, hi = float(chunk[0]), float(chunk[-1])
    return lo if mean < lo else hi if mean > hi else mean


def test_level_index_representatives_match_numpy_mean():
    # representatives are printed, so each one is the NumPy mean of its
    # cluster bit for bit, signed zeros included, unless that mean rounds
    # out of the cluster: seven ties at 0.7 average to 0.7000000000000001
    # and three at 0.1 to 0.10000000000000002, one ulp into the next level
    values = [-0.0, 0.3, 0.3 + 1e-10, 0.1 + 0.2, 0.7, -1.5, *[0.7] * 6,
              2.1, 2.1, 2.1]
    cluster, reps = cluster_levels(values, eps=1e-9)
    clusters = [[-1.5], [-0.0], [0.3, 0.1 + 0.2, 0.3 + 1e-10], [0.7] * 7,
                [2.1] * 3]
    assert len(reps) == len(clusters)
    assert cluster == [1, 2, 2, 2, 3, 0, *[3] * 6, 4, 4, 4]
    assert float(np.mean([0.7] * 7)) > 0.7
    assert reps[3] == 0.7
    for k, chunk in enumerate(clusters):
        want = _clamped_mean(chunk)
        assert math.copysign(1.0, reps[k]) == math.copysign(1.0, want)
        assert reps[k] == want


# a cluster: a center ten apart from the others and 1-12 offsets of at most
# 1 from it, so a tolerance of 2.5 chains exactly its members; the offsets
# draw both signed zeros and full-mantissa values whose sums round
_OFFSETS = st.one_of(st.sampled_from([0.0, -0.0, 0.1, -0.1, 5e-324]),
                     st.integers(-10 ** 6, 10 ** 6).map(lambda i: i / 999983),
                     st.floats(-1.0, 1.0))
_CLUSTER = st.tuples(st.integers(-5, 5), st.integers(1, 12).flatmap(
    lambda m: st.lists(_OFFSETS, min_size=m, max_size=m)))


@given(st.lists(_CLUSTER, min_size=1, max_size=8, unique_by=lambda c: c[0]),
       st.randoms(use_true_random=False))
# the mean of -0s only is +0: NumPy's sum starts from +0
@example([(0, [-0.0] * 2)], random.Random(0))
@example([(0, [-0.0] * 8)], random.Random(0))
# means that round out of their tie, summed by columns and pairwise
@example([(0, [0.1] * 3)], random.Random(0))
@example([(0, [0.3] * 11)], random.Random(0))
def test_level_representatives_are_numpy_means_bit_for_bit(clusters, rnd):
    # under 8 values the means are summed a column at a time, from 8 on
    # they are NumPy's; either way each equals the NumPy mean of its
    # cluster in the order of a stable sort, sign of zero included, clamped
    # into the cluster's span
    # 10.0 * 0 + -0.0 would be +0
    values = [10.0 * c + x if c else x for c, offsets in clusters
              for x in offsets]
    rnd.shuffle(values)
    cluster, reps = cluster_levels(values, eps=2.5)
    assert len(reps) == len(clusters)
    for k, rep in enumerate(reps):
        chunk = [v for v, c in zip(values, cluster) if c == k]
        want = _clamped_mean(chunk)
        assert rep.hex() == want.hex(), (k, chunk)


def test_level_index_empty():
    with pytest.raises(InputDataError, match="no values"):
        cluster_levels([], eps=1e-9)


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


def _csv(tmp_path, text, name="s.csv"):
    f = tmp_path / name
    f.write_bytes(text.encode("utf-8") if isinstance(text, str) else text)
    return str(f)


_ROWS = [f"{x},{(x - 2) ** 2}" for x in range(5)]


def test_load_samples_skips_blank_and_whitespace_lines(tmp_path):
    text = ("\n  \n" + _ROWS[0] + "\n\t\n" + "\n".join(_ROWS[1:3])
            + "\n \x0c \n" + "\n".join(_ROWS[3:]) + "\n\n   ")
    p = load_samples(_csv(tmp_path, text))
    assert p.xs.tolist() == [0, 1, 2, 3, 4]
    assert p.phis.tolist() == [4, 1, 0, 1, 4]


@pytest.mark.parametrize("end", ["\r\n", "\r"])
def test_load_samples_line_ends(tmp_path, end):
    path = _csv(tmp_path, "x,phi" + end + end.join(_ROWS) + end)
    p = load_samples(path)
    assert p.xs.tolist() == [0, 1, 2, 3, 4]
    # line numbers count those line ends too
    bad = _csv(tmp_path, end.join(["x,phi", *_ROWS[:2], "1,oops", *_ROWS]),
               "bad.csv")
    with pytest.raises(InputDataError, match=r"bad\.csv:4: non-numeric"):
        load_samples(bad)


def test_load_samples_header_only_on_line_one(tmp_path):
    # a non-numeric line 2 is an error, even after a blank line 1
    for text in ("0,4\nx,phi\n" + "\n".join(_ROWS[1:]),
                 "\nx,phi\n" + "\n".join(_ROWS)):
        with pytest.raises(InputDataError, match=r"s\.csv:2: non-numeric"):
            load_samples(_csv(tmp_path, text))
    # a header is two columns like any other line
    with pytest.raises(InputDataError, match=r"s\.csv:1: expected two"):
        load_samples(_csv(tmp_path, "x,phi,extra\n" + "\n".join(_ROWS)))


def test_load_samples_first_fault_in_line_order(tmp_path):
    lines = ["0,4", "1,1", "2,zero", "3,1", "4,4,4", "5,9"]
    with pytest.raises(InputDataError, match=r"s\.csv:3: non-numeric"):
        load_samples(_csv(tmp_path, "\n".join(lines)))
    lines[2], lines[4] = "2,0,0", "4,four"
    with pytest.raises(InputDataError, match=r"s\.csv:3: expected two"):
        load_samples(_csv(tmp_path, "\n".join(lines)))
    # an empty field is non-numeric, a line without a comma one column
    with pytest.raises(InputDataError, match=r"s\.csv:2: non-numeric"):
        load_samples(_csv(tmp_path, "0,4\n1,\n" + "\n".join(_ROWS)))
    with pytest.raises(InputDataError, match=r"s\.csv:3: expected two"):
        load_samples(_csv(tmp_path, "0,4\n1,1\n2\n" + "\n".join(_ROWS)))
    # three fields on one line and one on the next are no two samples
    with pytest.raises(InputDataError, match=r"s\.csv:2: expected two"):
        load_samples(_csv(tmp_path, "0,4\n1,1,1\n2\n" + "\n".join(_ROWS)))


def test_load_samples_token_syntax(tmp_path):
    # each field is read as Python's float() reads it
    text = ("  0 , 4 \n\t1_000e-3,\t1\n2.0 ,0_0\n+3.,1e0\n4 , 4.000\n")
    p = load_samples(_csv(tmp_path, text))
    assert p.xs.tolist() == [0, 1, 2, 3, 4]
    assert p.phis.tolist() == [4, 1, 0, 1, 4]
    for bad in ("inf", "-Infinity", "nan", "NaN"):
        path = _csv(tmp_path, "\n".join(_ROWS[:3] + [f"3,{bad}"] + _ROWS[4:]))
        with pytest.raises(InputDataError, match="samples must be finite"):
            load_samples(path)
    for bad in ("1__0", "_1", "0x1", "1,0"):
        path = _csv(tmp_path, "\n".join(_ROWS[:3] + [f"3,{bad}"] + _ROWS[4:]))
        with pytest.raises(InputDataError, match=r"s\.csv:4: "):
            load_samples(path)


def test_load_samples_byte_order_mark(tmp_path):
    # a UTF-8 byte-order mark is no header: a headerless double well keeps
    # its first sample
    xs = np.linspace(-2.0, 2.0, 401)
    text = "".join(f"{x!r},{(x * x - 1.0) ** 2!r}\n" for x in xs.tolist())
    p = load_samples(_csv(tmp_path, b"\xef\xbb\xbf" + text.encode()))
    assert p.xs.size == 401 and p.xs[0] == -2.0
    with_header = load_samples(_csv(tmp_path, "﻿x,phi\n" + text))
    assert with_header.xs.tobytes() == p.xs.tobytes()


_FIELDS = st.one_of(st.floats(allow_nan=False).map(repr),
                    st.sampled_from([" 2e0 ", "1_0", "\t", "", "x"]))
_LINES = st.one_of(st.builds("{},{}".format, _FIELDS, _FIELDS),
                   st.sampled_from(["", " ", "\t\x0c", "x,phi", "7", "1,2,3"]))


@given(st.lists(_LINES, max_size=12), st.sampled_from(["", "\n", "\r\n"]),
       st.sampled_from([1, 8, 1 << 20]))
def test_load_samples_reads_as_the_line_walk(tmp_path_factory, lines, end,
                                             block):
    # the one-pass parse, in blocks of any size, reads the samples that
    # the line-by-line walk reads, and fails with its message
    path = tmp_path_factory.getbasetemp() / "walk.csv"
    path.write_bytes((end.join(lines) + end).encode())

    def read(load):
        try:
            return load()
        except InputDataError as exc:
            return str(exc)

    with patch.object(landscape, "_BLOCK", block), patch.object(
            landscape, "make_sampled", lambda *xy: [a.tolist() for a in xy]):
        got = read(lambda: load_samples(str(path)))
    xy = read(lambda: landscape._walk_samples(
        str(path), path.read_text(encoding="utf-8-sig")))
    want = xy if isinstance(xy, str) else [xy[0::2].tolist(),
                                           xy[1::2].tolist()]
    assert got == want


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


def test_degenerate_extrema_are_below_the_rounding_floor():
    # a minimum or maximum flat to fourth order is degenerate whichever way
    # rounding tips its fitted curvature, on or off the sample grid
    xs = np.linspace(-1, 1, 201)
    walls = 10 * np.maximum(np.abs(xs) - 0.5, 0) ** 2
    for shift in (0.0, 1e-3, 1 / 300, 4e-3):
        with pytest.raises(DegenerateLandscapeError,
                           match="degenerate minimum near x = 0$"):
            extract_critical_structure(make_sampled(xs, (xs - shift) ** 4))
        with pytest.raises(DegenerateLandscapeError,
                           match="degenerate maximum near x = 0$"):
            extract_critical_structure(
                make_sampled(xs, walls - (xs - shift) ** 4))
    # a curvature a decade above the floor is a minimum of that curvature
    quartic = xs ** 4
    a = 5 * _curvature_floor(xs, quartic, 100)
    cs = extract_critical_structure(make_sampled(xs, a * xs ** 2 + quartic))
    assert cs.min_det_hess == [pytest.approx(2 * a, rel=0.01)]


def test_extract_rejects_degenerate_maximum():
    # the crest at 0 is flat to fourth order: its fitted curvature is not
    # negative
    xs = np.linspace(-2, 2, 401)
    with pytest.raises(DegenerateLandscapeError,
                       match="degenerate maximum near x = 0$"):
        extract_critical_structure(make_sampled(xs, xs ** 8 - xs ** 6
                                                - xs ** 4))


# How far the closed-form fits may sit from the oracle's least squares, in
# units of eps times a scale: max(1, max|phi|) for critical values and the
# level tolerance, max|x| for positions, and the curvature itself (ulps).
# Measured over 20 000 draws of the test below: at most 10, 75, 1.6 and
# 1020; nearly all of it is the oracle's rounding.
_EPS_BOUNDS = {"phi": 16, "level_tolerance": 128, "position": 4,
               "curvature": 2048}


def _extracted(extract, p, eps_level):
    """(ids, joins and order, {field: floats}) of the structure ``extract``
    builds from ``p``, or (the type and message of the error it raises,
    None)."""
    try:
        cs = extract(p, eps_level)
    except InputDataError as exc:           # DegenerateLandscapeError too
        return (type(exc).__name__, str(exc)), None
    return ((cs.min_ids, cs.sad_ids, cs.sad_joins, list(cs.positions)),
            {"phi": cs.min_phi + cs.sad_phi,
             "curvature": cs.min_det_hess + cs.sad_det_hess + cs.sad_neg_eig,
             "position": list(cs.positions.values()),
             "level_tolerance": [cs.level_tolerance]})


def _eps_units(field, got, want, p):
    """The largest gap between two float lists, in units of eps times the
    field's scale (see ``_EPS_BOUNDS``)."""
    got, want = np.array(got), np.array(want)
    if field == "curvature":
        scale = np.maximum(np.abs(got), np.abs(want))
    elif field == "position":
        scale = np.max(np.abs(p.xs))
    else:
        scale = max(1.0, np.max(np.abs(p.phis)))
    return np.max(np.abs(got - want) / (np.finfo(float).eps * scale))


@st.composite
def short_sequences(draw):
    """Few-valued integer samples: plateaus, equal pairs at crests, troughs
    and edges, extrema next to the edges, and the odd well."""
    phis = draw(st.lists(st.integers(0, 3), min_size=5, max_size=9))
    return make_sampled(np.arange(len(phis), dtype=float), phis)


@st.composite
def many_wells(draw):
    """A tilted, modulated cosine with 10 to 14 wells, cut on the slopes
    outside its outermost wells, so that ``m10`` sorts before ``m2``."""
    wells = draw(st.integers(10, 14))
    per = draw(st.integers(12, 40))              # samples per well
    amp = draw(st.floats(0.0, 0.3))
    omega = draw(st.floats(0.1, 1.0))
    phase = draw(st.floats(0.0, 2 * math.pi))
    tilt = draw(st.floats(-0.5, 0.5))
    xs = np.linspace(-0.4, wells - 0.6, round((wells - 0.2) * per) + 1)
    phis = ((1.0 - np.cos(2 * np.pi * xs))
            * (1.0 + amp * np.sin(omega * xs + phase)) + tilt * xs)
    return make_sampled(xs, phis)


@given(st.one_of(short_sequences(), many_wells()),
       st.sampled_from([None, 0.0, 1e-3, 1.0]))
def test_extract_matches_the_classifying_loop(p, eps_level):
    # the rows built by the parity of the extrema and fitted in closed form
    # are those of the loop that classified and fitted every extremum on its
    # own: ids, joins and order exactly, floats within _EPS_BOUNDS, and
    # every error is raised with the same class and message
    want, want_floats = _extracted(oracle_extract, p, eps_level)
    got, got_floats = _extracted(extract_critical_structure, p, eps_level)
    if got != want and (got_floats or want_floats):
        # the one allowed difference: two critical values one level
        # tolerance apart, a tie that the oracle's rounding may break. The
        # tolerance is the one the structure used; a computed one is never
        # zero, and equal values are no tie at it
        floats = got_floats or want_floats
        gaps = np.diff(np.sort(floats["phi"]))
        level = floats["level_tolerance"][0]
        tol = (_EPS_BOUNDS["phi"] * 2 + _EPS_BOUNDS["level_tolerance"]) * (
            np.finfo(float).eps * max(1.0, np.max(np.abs(p.phis))))
        tie = np.abs(gaps - level) <= tol
        if eps_level is None:
            tie &= gaps > 0
        assume(not np.any(tie))
    assert got == want
    if want_floats:
        for field, bound in _EPS_BOUNDS.items():
            assert _eps_units(field, got_floats[field], want_floats[field],
                              p) <= bound, field
    if p.xs.size > 100 and want_floats:
        assert want[0][:2] == ["m1", "m10"]


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


# ------------------------------------------------- the same bits on any CPU

# settings that make OpenBLAS or NumPy take other code paths in one process
_CPU_SETTINGS = {
    "default": {},
    "OpenBLAS Haswell": {"OPENBLAS_CORETYPE": "Haswell"},
    "OpenBLAS Zen": {"OPENBLAS_CORETYPE": "Zen"},
    "OpenBLAS Prescott": {"OPENBLAS_CORETYPE": "Prescott"},
    "NumPy without AVX2 and AVX-512": {
        "NPY_DISABLE_CPU_FEATURES": "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"},
}

_EXTRACT_CHILD = """
import hashlib, json, sys
from metastab.errors import DegenerateLandscapeError
from metastab.landscape import extract_critical_structure, load_samples
out = {}
for path in sys.argv[1:]:
    try:
        cs = extract_critical_structure(load_samples(path))
    except DegenerateLandscapeError as exc:
        out[path] = str(exc)
        continue
    rows = [cs.min_ids, cs.min_phi, cs.min_det_hess, cs.sad_ids, cs.sad_phi,
            cs.sad_det_hess, cs.sad_neg_eig, cs.sad_joins,
            list(cs.positions.items()), cs.level_tolerance]
    out[path] = hashlib.sha256(repr(rows).encode()).hexdigest()
print(json.dumps(out))
"""


def _child(setting, code, *args):
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES")}
    env.update(_CPU_SETTINGS[setting])
    return run_python(code, *args, env=env)


@pytest.fixture(scope="module")
def cpu_inputs(tmp_path_factory):
    """The double well and sampled chain of the golden tests, and ``xs**4``
    on 201 points, written once under this process's settings, so that the
    children read the same bytes; and the default child's results."""
    from test_golden import _write_double_well, _write_sampled_chain
    work = tmp_path_factory.mktemp("cpu")
    _write_double_well(work / "dw.csv")
    _write_sampled_chain(work / "chain.csv")
    xs = np.linspace(-1, 1, 201)
    (work / "quartic.csv").write_text("".join(
        f"{x!r},{y!r}\n" for x, y in zip(xs.tolist(), (xs ** 4).tolist())))
    paths = [str(work / name) for name in ("dw.csv", "chain.csv",
                                           "quartic.csv")]
    res = _child("default", _EXTRACT_CHILD, *paths)
    assert res.returncode == 0, res.stderr
    return paths, json.loads(res.stdout)


@pytest.mark.parametrize("setting", list(_CPU_SETTINGS)[1:])
def test_extraction_is_the_same_on_every_cpu_path(cpu_inputs, setting):
    """Extraction uses elementwise IEEE arithmetic alone, so each input
    gives the same structure rows, positions and level tolerance under
    every OpenBLAS kernel and NumPy dispatch level, and ``xs**4`` is
    rejected under each."""
    paths, want = cpu_inputs
    probe = _child(setting, "import numpy")
    if probe.returncode:
        pytest.skip(f"NumPy refuses {_CPU_SETTINGS[setting]}: "
                    f"{probe.stderr.strip().splitlines()[-1:]}")
    res = _child(setting, _EXTRACT_CHILD, *paths)
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout) == want
    assert want[paths[2]] == "degenerate minimum near x = 0"
