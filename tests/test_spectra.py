import gc
import math

import numpy as np
import pytest

from conftest import (Minimum, Saddle, block_class, class_matrices,
                      cluster_eigenvalues, graded_core, make_rng,
                      random_spd_core, shuffled_chain, tied_structure)
from metastab.errors import InputDataError, InvariantViolation
from metastab.examples import ex_a, ex_b, ex_c, nine_wells
from metastab.landscape import CriticalStructure
from metastab.spectra import class_spectrum, full_spectrum, schur_R, sym_eig
from metastab.topology import decompose

PI = math.pi


def _chain_core(theta):
    b = ex_b(theta)
    cd = decompose(b.structure)
    c = cd.classes[1]
    return c, graded_core(b.structure, cd, c)


# ------------------------------------------------------------ Schur recursion


def test_schur_J_chain():
    c, cores = _chain_core(2.0)
    r1 = len(c.member_blocks[0])
    assert np.allclose(cores[0, :r1, :r1], [[5.0 / PI]], atol=1e-14)


def test_schur_R_chain():
    theta = 2.0
    nu = 1.0 / (1.0 + theta ** 2)
    c, cores = _chain_core(theta)
    assert tuple(map(len, c.member_blocks)) == (1, 2)
    assert c.block_S == (1.0, 1.5)
    R = schur_R(cores, 1)
    want = np.array([[1.0, -1.0], [-1.0, 2.0 - nu]]) / PI
    assert R.shape == (1, 2, 2)
    assert np.allclose(R[0], want, atol=1e-13)


def test_schur_R_matches_direct_formula():
    for trial in range(30):
        rng = make_rng(f"schur-{trial}")
        cores, sizes = random_spd_core(rng)
        r1 = sizes[0]
        core = cores[0]
        J = core[:r1, :r1]
        B = core[r1:, :r1]
        N = core[r1:, r1:]
        want = N - B @ np.linalg.inv(J) @ B.T
        R = schur_R(cores, r1)
        assert R.shape == (1, sum(sizes[1:]), sum(sizes[1:]))
        assert np.allclose(R[0], want, atol=1e-12)
        # Schur complements of SPD matrices stay SPD
        assert np.linalg.eigvalsh(R[0])[0] > 0


def test_class_spectrum_level_count_and_order():
    for trial in range(10):
        rng = make_rng(f"levels-{trial}")
        cores, sizes = random_spd_core(rng)
        levels, = class_spectrum([block_class(sizes)], cores)
        assert [zeta2.size for zeta2 in levels] == sizes
        assert all(zeta2[0] > 0 for zeta2 in levels)


def test_class_spectrum_rejects_nonpositive_leading_block():
    with pytest.raises(InvariantViolation, match="nonpositive leading"):
        class_spectrum([block_class([1])], np.array([[[-1.0]]]))


# ----------------------------------------------------------------- exact refs


def test_spectrum_three_wells():
    cs = ex_a().structure
    cd = decompose(cs)
    report = full_spectrum(cs, cd)
    by_members = {c.members: (c, lv)
                  for c, lv in zip(cd.classes, report.levels)}
    assert by_members[("m11",)][1] == ()
    c, (zeta2,) = by_members[("m21", "m22")]
    assert c.block_S == (1.5,)
    root = math.sqrt(5.0) / 2.0
    assert np.allclose(PI * zeta2, [1.5 - root, 1.5 + root], atol=1e-13)
    c2, (zeta2,) = by_members[("m23",)]
    assert c2.block_S == (1.0,)
    assert np.allclose(PI * zeta2, [1.0], atol=1e-14)


@pytest.mark.parametrize("theta", [0.5, 1.0, 2.0])
def test_spectrum_chain_closed_form(theta):
    c, cores = _chain_core(theta)
    nu = 1.0 / (1.0 + theta ** 2)
    disc = math.sqrt((3.0 - nu) ** 2 - 4.0 * (1.0 - nu))
    (zeta2_1, zeta2_2), = class_spectrum([c], cores)
    assert c.block_S == (1.0, 1.5)
    assert np.allclose(PI * zeta2_1, [1.0 + theta ** 2], atol=1e-13)
    assert np.allclose(PI * zeta2_2,
                       [(3.0 - nu - disc) / 2.0, (3.0 - nu + disc) / 2.0],
                       atol=1e-13)


@pytest.mark.parametrize("n", [3, 4, 5, 8])
def test_spectrum_ring_closed_form(n):
    b = ex_c(n)
    cd = decompose(b.structure)
    report = full_spectrum(b.structure, cd)
    levels = [zeta2 for lv in report.levels for zeta2 in lv]
    assert len(levels) == 1
    got = np.sort(PI * levels[0])
    want = np.sort([2.0 - 2.0 * math.cos(2.0 * PI * k / n)
                    for k in range(1, n)])
    assert np.allclose(got, want, atol=1e-12)


# ------------------------------------------------------------ graph Laplacian


def graph_laplacian(cs, cd, alpha):
    """Weighted graph Laplacian view of a single-barrier type II class.

    Vertices are the extended set, edges the class saddles; equals
    Upsilon' Upsilon. Only defined for type II classes with p = 1.
    """
    if not (getattr(alpha, "type2", False) and alpha.p == 1):
        raise InputDataError(
            "graph Laplacian requires a type II class with one barrier level")
    U, _, _ = class_matrices(cs, cd, alpha)
    L = U.T @ U
    return 0.5 * (L + L.T)


def test_graph_laplacian_ring():
    b = ex_c(3)
    cd = decompose(b.structure)
    L = graph_laplacian(b.structure, cd, cd.classes[1])
    want = np.array([[2.0, -1.0, -1.0],
                     [-1.0, 2.0, -1.0],
                     [-1.0, -1.0, 2.0]]) / PI
    # vertex order is uhat: the two members then the reference minimum; the
    # cycle on three vertices is symmetric under any ordering
    assert np.allclose(L, want, atol=1e-14)
    assert np.allclose(np.sort(PI * sym_eig(L)), [0.0, 3.0, 3.0], atol=1e-13)


def test_graph_laplacian_path():
    cs = CriticalStructure(
        [Minimum("m1", 0.0, 1.0), Minimum("m2", 0.0, 1.0),
         Minimum("m3", 0.0, 1.0)],
        [Saddle("s1", 1.0, 1.0, 1.0, ("m2", "m1")),
         Saddle("s2", 1.0, 1.0, 1.0, ("m1", "m3"))])
    cd = decompose(cs)
    c = cd.classes[1]
    assert c.uhat == ("m2", "m3", "m1")
    L = graph_laplacian(cs, cd, c)
    want = np.array([[1.0, 0.0, -1.0],
                     [0.0, 1.0, -1.0],
                     [-1.0, -1.0, 2.0]]) / PI
    assert np.allclose(L, want, atol=1e-14)
    assert np.allclose(np.sort(PI * sym_eig(L)), [0.0, 1.0, 3.0], atol=1e-13)


def test_graph_laplacian_requires_single_level_type_two():
    cs = ex_a().structure
    cd = decompose(cs)
    with pytest.raises(InputDataError, match="type II"):
        graph_laplacian(cs, cd, cd.classes[1])
    b = ex_b()
    cdb = decompose(b.structure)
    with pytest.raises(InputDataError, match="type II"):
        graph_laplacian(b.structure, cdb, cdb.classes[1])


# ------------------------------------------------------------------ utilities


def test_sym_eig_sorted_and_accurate():
    rng = make_rng("symeig")
    a = rng.standard_normal((8, 8))
    M = a + a.T
    w = sym_eig(M)
    assert np.all(np.diff(w) >= 0)
    assert np.allclose(w, np.linalg.eigvalsh(M), atol=1e-12)


def test_sym_eig_residual_at_ring_size():
    # the largest matrix a bundled example hands sym_eig: the 199-member ring
    # class of ex-c --n 200, whose spectrum is known in closed form
    n = 200
    b = ex_c(n)
    cd = decompose(b.structure)
    M = graded_core(b.structure, cd, cd.classes[1])[0]
    assert M.shape == (n - 1, n - 1)
    w = sym_eig(M)
    Ms = 0.5 * (M + M.T)
    lam, V = np.linalg.eigh(Ms)
    scale = max(abs(lam[0]), abs(lam[-1]))
    resid = np.linalg.norm(Ms @ V - V * lam, axis=0)
    assert resid.max() <= 1e-12 * scale
    want = np.sort([2.0 - 2.0 * math.cos(2.0 * PI * k / n)
                    for k in range(1, n)]) / PI
    assert np.max(np.abs(w - want)) <= 1e-12 * scale


def test_cluster_eigenvalues_groups_degenerate_pairs():
    w = np.array([1.0, 1.0 + 1e-12, 2.0, 3.0, 3.0, 3.0])
    assert cluster_eigenvalues(w) == [
        (pytest.approx(1.0), 2), (2.0, 1), (3.0, 3)]
    assert cluster_eigenvalues(np.array([])) == []
    # a loose tolerance merges everything
    assert cluster_eigenvalues(np.array([1.0, 2.0]), rtol=1.0) == [(1.5, 2)]


# ------------------------------------------------------------- full spectrum


def test_full_spectrum_reference_landscape():
    b = nine_wells()
    cd = decompose(b.structure)
    report = full_spectrum(b.structure, cd)
    assert report.n0 == 9
    entries = report.evaluate(0.1)
    assert len(entries) == 9
    assert entries[0].lam == 0.0
    assert entries[0].members == ("m11",)
    assert math.isinf(entries[0].S)
    # ascending in the log scale, and consistent with the closed form
    logs = [e.log_lam for e in entries]
    assert logs == sorted(logs)
    for e in entries[1:]:
        assert e.lam == pytest.approx(
            0.1 * e.zeta2 * math.exp(-2.0 * e.S / 0.1), rel=1e-12)
    # the deepest barrier dominates the ordering at small h
    assert [e.S for e in entries[1:]] == [40.0, 34.0, 32.0, 24.0,
                                          20.0, 20.0, 20.0, 18.0]


def test_full_spectrum_handles_underflow():
    b = nine_wells()
    cd = decompose(b.structure)
    report = full_spectrum(b.structure, cd)
    entries = report.evaluate(0.01)
    # every exponential underflows to an exact float zero, but the log
    # ordering still separates them and the levels stay identifiable
    assert all(e.lam == 0.0 for e in entries)
    assert all(math.isfinite(e.log_lam) for e in entries[1:])
    logs = [e.log_lam for e in entries]
    assert logs == sorted(logs)


def test_evaluate_rejects_bad_h():
    b = ex_a()
    cd = decompose(b.structure)
    report = full_spectrum(b.structure, cd)
    with pytest.raises(InputDataError, match="h must be positive"):
        report.evaluate(0.0)
    with pytest.raises(InputDataError, match="h must be positive"):
        report.evaluate(-1.0)


def test_evaluate_rejects_h_beyond_float_range():
    # at the parent each of these gave a null in the report or a math
    # domain error: 2S/h overflows, h*zeta2 underflows, h*zeta2 overflows
    b = ex_a()
    report = full_spectrum(b.structure, decompose(b.structure))
    with pytest.raises(InputDataError, match="log lambda at h = 1e-320"):
        report.evaluate(1e-320)
    with pytest.raises(InputDataError, match=r"h \* zeta2 = 0.0"):
        report.evaluate(5e-324)
    report.levels[1] = tuple(zeta2 * 1e10 for zeta2 in report.levels[1])
    with pytest.raises(InputDataError, match=r"h \* zeta2 = inf"):
        report.evaluate(1e300)
    assert all(math.isfinite(e.lam) and math.isfinite(e.log_lam)
               for e in report.evaluate(1e-3)[1:])


@pytest.mark.parametrize("draw", [
    lambda: shuffled_chain(np.random.default_rng(1), 1000),
    lambda: tied_structure(np.random.default_rng(0), n_max=1000),
], ids=["shuffled", "tied"])
def test_full_spectrum_tracks_no_object_per_class(draw):
    # the report holds its classes' data in columns of NumPy views, which
    # the cyclic collector does not track. The call runs with the collector
    # off, as in the CLI; one collection after it untracks what a young
    # collection would (tuples of arrays), and what stays tracked is the
    # report and its columns, not one object per class that every later
    # full collection would walk
    cs = draw()
    cd = decompose(cs)
    groups = {(len(c.cells), c.type2, tuple(map(len, c.member_blocks)))
              for c in cd.classes[1:]}
    assert len(cd.classes) > 3 * len(groups)
    full_spectrum(cs, cd)         # loads what a first call loads
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        before = len(gc.get_objects())
        report = full_spectrum(cs, cd)
        gc.collect()
        left = len(gc.get_objects()) - before
    finally:
        if enabled:
            gc.enable()
    assert report.n0 == len(cs.min_ids)
    assert left <= 6 + len(groups), (left, len(cd.classes), len(groups))
