import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.interpolate import BPoly

import metastab
from metastab.errors import InputDataError
from metastab.examples import (build_example, chain_sampled, double_well,
                               example_names)
from metastab.landscape import extract_critical_structure
from metastab.spectra import full_spectrum
from metastab.topology import decompose


def test_example_names_and_dispatch():
    assert example_names() == ["chain", "double-well", "ex-a", "ex-b",
                               "ex-c", "nine-wells"]
    assert build_example("ex-c", n=6).realization["n"] == 6
    assert build_example("ex-b", theta=0.5).realization["theta"] == 0.5
    assert build_example("nine-wells").name == "nine-wells"


def test_example_parameter_errors():
    with pytest.raises(InputDataError, match="unknown example"):
        build_example("nope")
    with pytest.raises(InputDataError, match="takes no parameters"):
        build_example("ex-a", n=4)
    with pytest.raises(InputDataError, match="takes no parameters"):
        build_example("double-well", theta=1.0)
    with pytest.raises(InputDataError, match="at least 3"):
        build_example("ex-c", n=2)
    with pytest.raises(InputDataError, match="theta must be positive"):
        build_example("ex-b", theta=0.0)


def test_structure_bundles_are_self_consistent():
    # every structure bundle's reference section must be reproduced by the
    # pipeline it documents
    for name in ("ex-a", "ex-b", "nine-wells"):
        b = build_example(name)
        cd = decompose(b.structure)
        report = full_spectrum(b.structure, cd)
        refs = {tuple(c["members"]): c for c in b.reference["classes"]}
        assert len(report.levels) == len(cd.classes)
        for alpha, levels in zip(cd.classes, report.levels):
            ref = refs.pop(alpha.members)
            if not levels:
                assert ref.get("pi_zeta2", [0.0]) == [0.0]
                continue
            if "S" in ref:
                assert len(levels) == len(ref["S"])
                assert list(alpha.block_S) == pytest.approx(ref["S"])
            if "pi_zeta2" in ref:
                got = np.sort(np.concatenate(levels)) * math.pi
                assert got == pytest.approx(ref["pi_zeta2"], abs=1e-12)
            if "pi_zeta2_by_level" in ref:
                for zeta2, want in zip(levels,
                                       ref["pi_zeta2_by_level"]):
                    assert np.sort(zeta2) * math.pi == pytest.approx(
                        want, abs=1e-12)
        assert not refs


def test_ring_bundle_reference():
    for n in (3, 7):
        b = build_example("ex-c", n=n)
        cd = decompose(b.structure)
        report = full_spectrum(b.structure, cd)
        got = np.sort(np.concatenate(
            [zeta2 for lv in report.levels for zeta2 in lv]))
        assert got * math.pi == pytest.approx(b.reference["pi_zeta2"],
                                              abs=1e-10)


def test_double_well_bundle():
    b = double_well()
    assert b.structure is None and b.potential is not None
    assert b.validate_h == (0.15, 0.10, 0.07)
    cs = extract_critical_structure(b.potential)
    cd = decompose(cs)
    report = full_spectrum(cs, cd)
    entries = report.evaluate(0.1)
    assert len(entries) == 2
    lam = entries[1]
    assert lam.S == pytest.approx(b.reference["S"], abs=1e-9)
    assert lam.zeta2 == pytest.approx(b.reference["zeta2"], rel=1e-6)


def test_chain_realization_matches_abstract_chain():
    # the sampled chain realizes the ex-a structure: same classes, same
    # barriers, prefactors agreeing to the sampling accuracy
    abstract = build_example("ex-a")
    cd_abs = decompose(abstract.structure)
    rep_abs = full_spectrum(abstract.structure, cd_abs)

    cs = extract_critical_structure(chain_sampled())
    cd = decompose(cs)
    rep = full_spectrum(cs, cd)

    assert len(rep.levels) == len(cd.classes)
    assert len(rep_abs.levels) == len(cd_abs.classes)
    assert [len(c.members) for c in cd.classes] == [
        len(c.members) for c in cd_abs.classes]
    got = sorted((S, z) for c, lv in zip(cd.classes, rep.levels)
                 for S, zeta2 in zip(c.block_S, lv) for z in zeta2)
    want = sorted((S, z) for c, lv in zip(cd_abs.classes, rep_abs.levels)
                  for S, zeta2 in zip(c.block_S, lv) for z in zeta2)
    for (S1, z1), (S2, z2) in zip(got, want):
        assert S1 == pytest.approx(S2, abs=1e-6)
        assert z1 == pytest.approx(z2, rel=1e-5)


def test_chain_samples_match_bpoly():
    # SciPy's BPoly.from_derivatives builds the same interpolant from the
    # same data in Bernstein form. The largest difference measured is
    # 2 eps max|phi| (1.8e-15, two ulps of phi near 4 at the left wall),
    # also with glibc's AVX2, FMA and AVX-512 paths disabled.
    p = chain_sampled()
    b = build_example("chain").realization
    points, ends = b["critical_points"], b["ends"]
    data = [[v, 0.0, c, 0.0, 0.0]
            for v, c in zip(points["phi"], points["phi''"])]
    lo, hi = zip(ends["phi"], ends["phi'"])
    poly = BPoly.from_derivatives(
        [b["domain"][0]] + points["x"] + [b["domain"][1]],
        [list(lo)] + data + [list(hi)])
    assert p.xs.tolist() == np.linspace(-2.5, 14.5, 8501).tolist()
    want = poly(p.xs)
    err = np.max(np.abs(p.phis - want))
    assert err <= 2.0 * np.finfo(float).eps * np.max(np.abs(want))


def test_chain_bundle_extracts_ex_a():
    # the extraction finds ex-a's levels at the bundle's critical points,
    # with unit curvatures, and the analysis ex-a's closed forms
    b = build_example("chain")
    assert b.validate_h == (0.3, 0.2, 0.15)
    cs = extract_critical_structure(b.potential)
    points = b.realization["critical_points"]
    want = sorted(zip(points["x"], points["phi"],
                      map(abs, points["phi''"])))
    got = sorted(zip([cs.positions[i] for i in cs.min_ids + cs.sad_ids],
                     cs.min_phi + cs.sad_phi,
                     cs.min_det_hess + cs.sad_det_hess))
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g == pytest.approx(w, rel=1e-6, abs=1e-9)
    assert sorted(cs.min_phi) == pytest.approx(sorted(
        build_example("ex-a").realization["phi_minima"].values()), abs=1e-9)

    cd = decompose(cs)
    report = full_spectrum(cs, cd)
    at = {round(cs.positions[m]): m for m in cs.min_ids}
    rename = {m: at[x] for m, x in b.realization["x_minima"].items()}
    classes = {frozenset(c.members): (c, lv)
               for c, lv in zip(cd.classes, report.levels)}
    for ref in b.reference["classes"]:
        alpha, levels = classes[frozenset(map(rename.get, ref["members"]))]
        got_pz = np.sort(np.concatenate(levels or [[0.0]])) * math.pi
        assert got_pz == pytest.approx(ref["pi_zeta2"], rel=1e-6, abs=1e-12)
        if "S" in ref:
            assert list(alpha.block_S) == pytest.approx(ref["S"], abs=1e-9)


def test_chain_sampled_loads_no_scipy():
    src = str(Path(metastab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH")
                 else [])))
    res = subprocess.run(
        [sys.executable, "-c",
         "import sys\n"
         "from metastab.examples import chain_sampled\n"
         "chain_sampled()\n"
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        env=env, capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout == "[]\n"
