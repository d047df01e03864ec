import math

import numpy as np
import pytest

from metastab.errors import InputDataError
from metastab.examples import (build_example, chain_sampled, double_well,
                               example_names)
from metastab.landscape import extract_critical_structure
from metastab.spectra import full_spectrum
from metastab.topology import decompose


def test_example_names_and_dispatch():
    assert example_names() == ["double-well", "ex-a", "ex-b", "ex-c",
                               "nine-wells"]
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
