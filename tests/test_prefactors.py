import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import spectrum_oracle as oracle
from conftest import (Minimum, Saddle, class_matrices, graded_core,
                      limit_address_space, make_rng, minima, oracle_view,
                      run_python, saddle_rows, saddles, tied_structure,
                      type1_gadget, type2_gadget, uhat_blocks, weight)
from metastab import prefactors
from metastab.errors import InputDataError
from metastab.examples import double_well, ex_a, ex_b, ex_c
from metastab.landscape import CriticalStructure, extract_critical_structure
from metastab.prefactors import build_class_matrices, build_graded_core
from metastab.spectra import class_spectrum
from metastab.topology import decompose

SQPI = math.sqrt(math.pi)


def _aux_two_deep():
    """Two equal wells merged low, plus a shallow one exiting above: the
    reference weight of the shallow class aggregates both deep wells."""
    return CriticalStructure(
        [Minimum("m1", 0.0, 1.0), Minimum("m2", 0.0, 1.0),
         Minimum("m3", 0.5, 1.0)],
        [Saddle("s1", 1.0, 1.0, 1.0, ("m1", "m2")),
         Saddle("s2", 2.0, 1.0, 1.0, ("m3", "m1"))])


# ------------------------------------------------------------------- weights


def test_h_phi_single_minimum():
    cs = ex_a().structure
    cd = decompose(cs)
    c = cd.classes[1]
    assert weight(cs, cd, c, "m21") == 1.0


def test_h_phi_sampled_minimum():
    cs = extract_critical_structure(double_well().potential)
    cd = decompose(cs)
    c = cd.classes[1]
    assert weight(cs, cd, c, c.members[0]) == pytest.approx(8 ** 0.25,
                                                            rel=1e-7)


def test_h_phi_reference_minimum_aggregates_component():
    cs = _aux_two_deep()
    cd = decompose(cs)
    c = next(cl for cl in cd.classes[1:] if cl.members == ("m3",))
    # the exit of m3 opens at 2.0, where the enclosing component already
    # holds both deep wells
    assert c.mhat == "m1"
    assert weight(cs, cd, c, "m1") == pytest.approx(2 ** -0.5)


@given(st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.lists(st.one_of(st.floats(min_value=5e-324, max_value=1e300),
                          st.sampled_from([2.0 ** -106, 1.0, 4.0])),
                min_size=16, max_size=16))
def test_h_phi_partials_match_the_oracle_bit_for_bit(seed, dets):
    """The weight from a node's exact partials equals the oracle's fsum over
    every tied minimum, from subnormal Hessians to 1e300, whatever order
    the minima come in. Terms det_hess^-1/2 of 2^53, 1 and 1/2 make sums
    that a rounded running sum gets wrong."""
    rng = np.random.default_rng(seed)
    base = tied_structure(rng, n_max=16)
    rows = [m._replace(det_hess=d) for m, d in zip(minima(base), dets)]
    rng.shuffle(rows)
    cs = CriticalStructure(rows, saddles(base), base.level_tolerance)
    cd = decompose(cs)
    ocs, ocd = oracle_view(cs, cd)
    for alpha, oalpha in zip(cd.classes[1:], ocd.classes[1:]):
        for mid in alpha.uhat:
            got = weight(cs, cd, alpha, mid)
            assert got.hex() == oracle.h_phi(ocs, ocd, mid, oalpha).hex()


# ------------------------------------------------------------------- upsilon


def test_upsilon_three_wells():
    cs = ex_a().structure
    cd = decompose(cs)
    c = cd.classes[1]
    U, _, _ = class_matrices(cs, cd, c)
    assert [sid for sid, *_ in saddle_rows(cs, c)] == ["s1", "s2"]
    want = np.array([[1.0, -1.0], [0.0, 1.0]]) / SQPI
    assert np.allclose(U, want, atol=1e-15)


def test_upsilon_chain():
    theta = 1.5
    b = ex_b(theta)
    cd = decompose(b.structure)
    c = cd.classes[1]
    assert c.uhat == ("m23", "m21", "m22")
    U, _, _ = class_matrices(b.structure, cd, c)
    assert [sid for sid, *_ in saddle_rows(b.structure, c)] == [
        "s1", "s2", "s3"]
    want = np.array([[0.0, 1.0, -1.0],
                     [1.0, 0.0, -1.0],
                     [theta, 0.0, 0.0]]) / SQPI
    assert np.allclose(U, want, atol=1e-14)


def test_upsilon_sampled_double_well():
    cs = extract_critical_structure(double_well().potential)
    cd = decompose(cs)
    c = cd.classes[1]
    assert c.type2 and c.uhat == (c.members[0], c.mhat)
    U, _, _ = class_matrices(cs, cd, c)
    want = 2 ** 1.25 / SQPI
    assert np.allclose(U, [[want, -want]], rtol=1e-6)


def test_upsilon_kernel_is_inverse_weight_vector():
    # type II classes annihilate the vector of inverse weights over the
    # extended set; every row touches two extended-set entries
    for trial in range(20):
        rng = make_rng(f"kernel-{trial}")
        cs = type2_gadget(rng)
        cd = decompose(cs)
        for c in cd.classes[1:]:
            if not c.type2:
                continue
            U, _, _ = class_matrices(cs, cd, c)
            xi = np.array([1.0 / weight(cs, cd, c, x) for x in c.uhat])
            assert np.max(np.abs(U @ xi)) <= 1e-12 * np.max(np.abs(U))


# ------------------------------------------------------------------------- T


def test_T_identity_for_type_one():
    cs = ex_a().structure
    cd = decompose(cs)
    _, T, theta0 = class_matrices(cs, cd, cd.classes[1])
    assert np.array_equal(T, np.eye(2))
    assert theta0 is None


def test_T_completes_kernel_direction():
    for trial in range(20):
        rng = make_rng(f"tmat-{trial}")
        cs = type2_gadget(rng)
        cd = decompose(cs)
        c = cd.classes[1]
        assert c.type2
        _, T, theta0 = class_matrices(cs, cd, c)
        blk = uhat_blocks(c)[-1]
        # orthonormal columns
        assert np.allclose(T.T @ T, np.eye(c.q), atol=1e-13)
        # the type II block columns are orthogonal to theta0
        pos = {mid: i for i, mid in enumerate(c.uhat)}
        rows = [pos[x] for x in blk]
        assert np.allclose(theta0 @ T[rows, :], 0.0, atol=1e-13)
        # theta0 is the normalized inverse-weight direction on its block
        xi = np.array([1.0 / weight(cs, cd, c, x) for x in blk])
        xi /= np.linalg.norm(xi)
        assert np.allclose(theta0, xi, atol=1e-13)


def test_T_type_one_rows_of_gadgets():
    for trial in range(10):
        rng = make_rng(f"tmat1-{trial}")
        cs = type1_gadget(rng)
        cd = decompose(cs)
        for c in cd.classes[1:]:
            if c.type2:
                continue
            _, T, _ = class_matrices(cs, cd, c)
            assert np.array_equal(T, np.eye(c.q))


# --------------------------------------------------------------------- cores


def test_core_three_wells():
    cs = ex_a().structure
    cd = decompose(cs)
    cores = graded_core(cs, cd, cd.classes[1])
    want = np.array([[1.0, -1.0], [-1.0, 2.0]]) / math.pi
    assert cores.shape == (1, 2, 2)
    assert np.allclose(cores[0], want, atol=1e-15)


def test_core_chain_two_blocks():
    theta = 2.0
    b = ex_b(theta)
    cd = decompose(b.structure)
    c = cd.classes[1]
    cores = graded_core(b.structure, cd, c)
    # rows follow member_order: the blocks of sizes 1 and 2, at S 1 and 1.5
    assert c.member_order == ("m23", "m21", "m22")
    assert c.member_blocks == (("m23",), ("m21", "m22"))
    assert c.block_S == (1.0, 1.5)
    want = np.array([[1.0 + theta ** 2, 0.0, -1.0],
                     [0.0, 1.0, -1.0],
                     [-1.0, -1.0, 2.0]]) / math.pi
    assert np.allclose(cores[0], want, atol=1e-14)


def test_core_positive_definite_on_gadgets():
    for trial in range(15):
        rng = make_rng(f"corespd-{trial}")
        cs = (type1_gadget if trial % 2 else type2_gadget)(rng)
        cd = decompose(cs)
        for c in cd.classes[1:]:
            cores = graded_core(cs, cd, c)
            assert cores.shape == (1, c.q, c.q)
            w = np.linalg.eigvalsh(cores[0])
            assert w[0] > 0


def test_core_invariant_under_completion_choice():
    # replacing the Householder completion by any other orthonormal
    # completion conjugates the core blockwise and leaves each level's
    # spectrum alone
    for trial in range(10):
        rng = make_rng(f"completion-{trial}")
        cs = type2_gadget(rng)
        cd = decompose(cs)
        c = cd.classes[1]
        U, T, _ = build_class_matrices(cs, cd, [c])
        nblk = len(c.member_blocks[-1])
        q_rot = np.linalg.qr(rng.standard_normal((nblk, nblk)))[0]
        W = np.eye(c.q)
        W[c.q - nblk:, c.q - nblk:] = q_rot
        (levels1,) = class_spectrum([c], build_graded_core([c], U, T))
        (levels2,) = class_spectrum([c], build_graded_core([c], U, T @ W))
        for zeta2_1, zeta2_2 in zip(levels1, levels2):
            assert np.allclose(np.sort(zeta2_1), np.sort(zeta2_2),
                               rtol=1e-11, atol=1e-13)


@given(st.floats(min_value=0.05, max_value=20.0))
def test_upsilon_scaling_law(c):
    # det -> c^4 det and neg -> c^2 neg leaves sqrt(neg)/h(s) alone and
    # scales every minimum weight by c, so U picks up exactly one factor c
    base = ex_a().structure
    scaled = CriticalStructure(
        [Minimum(m.id, m.phi, m.det_hess * c ** 4) for m in minima(base)],
        [Saddle(s.id, s.phi, s.det_hess * c ** 4, s.neg_eig * c ** 2, s.joins)
         for s in saddles(base)])
    cd0 = decompose(base)
    cd1 = decompose(scaled)
    U0, _, _ = class_matrices(base, cd0, cd0.classes[1])
    U1, _, _ = class_matrices(scaled, cd1, cd1.classes[1])
    assert np.allclose(U1, c * U0, rtol=1e-12)


def test_class_matrices_budget_is_exact(monkeypatch):
    # the ring of 10 equal minima is one class of 9 members over 10 saddle
    # rows and 10 extended columns: 100 + 90 + 81 = 271 entries
    cs = ex_c(10).structure
    cd = decompose(cs)
    ring = [a for a in cd.classes if not a.ground]
    monkeypatch.setattr(prefactors, "_MAX_ENTRIES", 271)
    build_class_matrices(cs, cd, ring)
    monkeypatch.setattr(prefactors, "_MAX_ENTRIES", 270)
    with pytest.raises(InputDataError, match=r"1 class\(es\) of 9 members "
                       r"need 271 dense matrix entries, over the budget of "
                       r"270; the level tolerance \(--eps-level\)"):
        build_class_matrices(cs, cd, ring)


def test_class_over_budget_exits_2_under_a_memory_limit():
    # in a child limited to 1 GiB of address space: unchecked, the ring's
    # 19 999-member class asks for a 2.98 GiB Upsilon and ends in
    # MemoryError (exit 3)
    res = run_python("from metastab.cli import main; main()", "example",
                     "ex-c", "--n", "20000", preexec_fn=limit_address_space)
    assert res.returncode == 2, res.stdout + res.stderr
    assert res.stderr == ""
    doc = json.loads(res.stdout)
    assert list(doc) == ["schema", "error"]
    assert doc["error"] == {
        "type": "InputDataError",
        "message": "1 class(es) of 19999 members need 1199940001 dense "
                   f"matrix entries, over the budget of {2 ** 24}; the level "
                   "tolerance (--eps-level) decides which minima tie into "
                   "one class"}
