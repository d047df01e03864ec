"""Release gate: nine end-to-end checks, one per numbered criterion.

Each test reproduces a known closed form or statistical law through the
public pipeline, asserts it at the stated tolerance, and enforces a
wall-clock budget. Run with -s to see the one-line summaries.
"""

import math
import time

import numpy as np
import scipy.linalg

import sweep_oracle
from conftest import (ById, alternating_family, block_class, class_matrices,
                      cluster_eigenvalues, graded_core, make_rng, random_spd,
                      random_spd_core, random_tree_structure, type1_gadget,
                      type2_gadget, weight)
from metastab.examples import build_example
from metastab.landscape import extract_critical_structure, make_sampled
from metastab.spectra import class_spectrum, full_spectrum
from metastab.topology import decompose
from metastab.validator import compare


def check_generic_assumption(cs):
    return sweep_oracle.check_generic_assumption(ById(cs))


def _done(k, t0, budget, detail):
    dt = time.perf_counter() - t0
    assert dt < budget, f"criterion {k}: {dt:.2f}s over the {budget}s budget"
    print(f"criterion {k}: PASS ({dt:.2f}s; {detail})")


def _pipeline(cs):
    cd = decompose(cs)
    return cd, full_spectrum(cs, cd)


def test_criterion_1_two_member_chain():
    t0 = time.perf_counter()
    cs = build_example("ex-a").structure
    cd, rep = _pipeline(cs)
    levels = {c.members: lv for c, lv in zip(cd.classes, rep.levels)}

    zeta2, = levels[("m21", "m22")]
    got = np.sort(np.pi * zeta2)
    want = np.array([1.5 - math.sqrt(5) / 2, 1.5 + math.sqrt(5) / 2])
    assert np.max(np.abs(got - want)) <= 1e-12

    zeta2, = levels[("m23",)]
    assert abs(math.pi * zeta2[0] - 1.0) <= 1e-12

    ground = rep.evaluate(0.1)[0]
    assert ground.members == ("m11",)
    assert ground.zeta2 == 0.0 and ground.lam == 0.0
    _done(1, t0, 1.0, "pair splitting 3/2 +- sqrt(5)/2, singleton 1, ground 0")


def test_criterion_2_two_level_schur_recursion():
    t0 = time.perf_counter()
    for theta in (0.5, 1.0, 2.0):
        cs = build_example("ex-b", theta=theta).structure
        cd = decompose(cs)
        alpha = next(c for c in cd.classes if not c.ground)
        core, L = graded_core(cs, cd, alpha)
        nu = 1.0 / (1.0 + theta * theta)

        # the Schur complement onto the second block, read off the factor
        s = len(alpha.member_blocks[0])
        R = L[0, s:, s:] @ L[0, s:, s:].T
        want = np.array([[1.0, -1.0], [-1.0, 2.0 - nu]]) / math.pi
        assert np.max(np.abs(R - want)) <= 1e-12

        disc = math.sqrt((3 - nu) ** 2 - 4 * (1 - nu))
        lam_pm = [(3 - nu - disc) / 2, (3 - nu + disc) / 2]
        (zeta2_1, zeta2_2), = class_spectrum([alpha], core, L)
        assert abs(math.pi * zeta2_1[0] - (1 + theta * theta)) <= 1e-12
        got = np.sort(np.pi * zeta2_2)
        assert np.max(np.abs(got - lam_pm)) <= 1e-12
    _done(2, t0, 1.0, "R and both closed-form levels at theta in {0.5,1,2}")


def test_criterion_3_ring_spectrum_with_degeneracies():
    t0 = time.perf_counter()
    for n in range(3, 9):
        cs = build_example("ex-c", n=n).structure
        cd, rep = _pipeline(cs)
        zeta2, = next(lv for c, lv in zip(cd.classes, rep.levels)
                      if not c.ground)
        got = np.sort(np.pi * zeta2)
        want = np.sort([2 * (1 - math.cos(2 * math.pi * k / n))
                        for k in range(1, n)])
        assert np.max(np.abs(got - want) / want) <= 1e-10

        # k and n-k give the same eigenvalue; those pairs must come out
        # degenerate to round-off, not merely to the comparison tolerance
        mults = [m for _, m in cluster_eigenvalues(got)]
        pairs = (n - 1) // 2
        assert mults == [2] * pairs + [1] * (1 - n % 2)
        scale = got[-1]
        for i in range(pairs):
            assert got[2 * i + 1] - got[2 * i] <= 1e-12 * scale
    _done(3, t0, 1.0, "1 - cos law and exact pairing for n = 3..8")


def test_criterion_4_graded_perturbation_law():
    """Scaling the blocks by tau^(j-1) must reproduce the per-level spectra
    with O(tau^2) relative error, quartering as tau halves."""
    t0 = time.perf_counter()
    taus = (0.1, 0.05, 0.025)
    ratios = []
    for i in range(200):
        cores, sizes = random_spd_core(make_rng(f"accept4:{i}"))
        levels, = class_spectrum([block_class(sizes)], cores,
                                 np.linalg.cholesky(cores))
        errs = []
        for tau in taus:
            omega = np.concatenate([np.full(r, tau ** j)
                                    for j, r in enumerate(sizes)])
            dense = np.sort(np.linalg.eigvalsh(
                cores[0] * np.outer(omega, omega)))
            pred = np.sort(np.concatenate(
                [tau ** (2 * j) * zeta2 for j, zeta2 in enumerate(levels)]))
            rel = float(np.max(np.abs(dense - pred) / pred))
            assert rel <= 2.0 * tau * tau
            errs.append(rel)
        ratios += [a / b for a, b in zip(errs, errs[1:])]
    frac = np.mean([3.0 <= r <= 5.0 for r in ratios])
    assert frac >= 0.95
    _done(4, t0, 30.0,
          f"200 cores, C = 2, {frac:.1%} of {len(ratios)} ratios in [3,5]")


def test_criterion_5_kernel_and_rank():
    t0 = time.perf_counter()
    for i in range(100):
        cs = type2_gadget(make_rng(f"accept5:{i}"))
        cd = decompose(cs)
        alpha = next(c for c in cd.classes if not c.ground)
        U, T, _ = class_matrices(cs, cd, alpha)
        inv_w = np.array([1.0 / weight(cs, cd, alpha, x) for x in alpha.uhat])
        resid = np.max(np.abs(U @ inv_w))
        assert resid <= 1e-12 * np.max(np.abs(U))
        assert np.linalg.matrix_rank(U @ T) == alpha.q
    for i in range(100):
        cs = type1_gadget(make_rng(f"accept5b:{i}"))
        cd = decompose(cs)
        for alpha in cd.classes:
            if alpha.ground:
                continue
            U, _, _ = class_matrices(cs, cd, alpha)
            assert np.linalg.matrix_rank(U) == alpha.q
    _done(5, t0, 5.0, "100 type-II kernels/ranks, 100 type-I ranks")


def test_criterion_6_generic_landscapes_are_singletons():
    t0 = time.perf_counter()
    for i in range(100):
        cs = random_tree_structure(make_rng(f"accept6:{i}"))
        ok, witness = check_generic_assumption(cs)
        assert ok, witness
        cd = decompose(cs)
        assert all(len(c.members) == 1 for c in cd.classes)

    # two saddles at one level sharing a component: genericity fails but
    # the classes still come out as singletons
    cs = alternating_family()
    ok, witness = check_generic_assumption(cs)
    assert not ok
    assert witness["condition"] == "unique-maximal-saddle"
    cd = decompose(cs)
    assert all(len(c.members) == 1 for c in cd.classes)
    _done(6, t0, 5.0, "100 generic landscapes plus the alternating family")


def test_criterion_7_symmetric_double_well():
    t0 = time.perf_counter()
    xs = np.linspace(-2.0, 2.0, 4001)
    p = make_sampled(xs, (xs ** 2 - 1.0) ** 2)
    cs = extract_critical_structure(p)
    cd, rep = _pipeline(cs)

    hs = (0.15, 0.10, 0.07)
    pref = 8.0 * math.sqrt(2.0) / math.pi
    for h in hs:
        lam = rep.evaluate(h)[1].lam
        assert abs(lam / (pref * h * math.exp(-2.0 / h)) - 1.0) <= 1e-9

    vrep = compare(rep, p, hs)
    devs = [s.deviations[0] for s in vrep.steps]
    assert devs[0] > devs[1] > devs[2]
    assert devs[2] <= 0.25
    assert vrep.verdicts == ("PASS",)
    _done(7, t0, 60.0,
          "deviations " + ", ".join(f"{d:.3f}" for d in devs) + " at h = "
          + ", ".join(str(h) for h in hs))


def test_criterion_8_tilted_double_well():
    """Tilted quartic: the shallow well empties at rate b0*h*exp(-2S/h) with
    b0 = sqrt(phi''(min) |phi''(saddle)|)/pi and S the barrier seen from the
    shallow side."""
    t0 = time.perf_counter()

    def phi(x):
        return x ** 4 / 4 - x ** 2 / 2 + 0.1 * x

    left, saddle, right = np.sort(np.roots([1.0, 0.0, -1.0, 0.1]).real)
    ddphi = lambda x: 3 * x * x - 1
    S = phi(saddle) - phi(right)
    b0 = math.sqrt(ddphi(right) * abs(ddphi(saddle))) / math.pi

    xs = np.linspace(-2.4, 2.4, 4801)
    p = make_sampled(xs, phi(xs))
    cs = extract_critical_structure(p)
    cd, rep = _pipeline(cs)
    entry = rep.evaluate(0.05)[1]
    assert entry.members == ("m2",)
    assert abs(entry.S / S - 1.0) <= 1e-12
    assert abs(entry.zeta2 / b0 - 1.0) <= 1e-9

    hs = (0.08, 0.06, 0.045)
    vrep = compare(rep, p, hs)
    devs = [s.deviations[0] for s in vrep.steps]
    assert devs[0] > devs[1] > devs[2]
    assert vrep.verdicts == ("PASS",)
    for h, step in zip(hs, vrep.steps):
        against_b0 = step.numeric[0] / (b0 * h * math.exp(-2 * S / h))
        assert abs(against_b0 - 1.0) <= 0.25
    _done(8, t0, 60.0,
          "deviations " + ", ".join(f"{d:.3f}" for d in devs) + " at h = "
          + ", ".join(str(h) for h in hs))


def test_criterion_9_singular_value_toolbox():
    t0 = time.perf_counter()

    rng = make_rng("accept9:fan")
    for _ in range(100):
        m, n, p = rng.integers(1, 9, size=3)
        A = rng.normal(size=(m, n))
        B = rng.normal(size=(n, p))
        sv_ab = scipy.linalg.svdvals(A @ B)
        sv_a = np.zeros(sv_ab.size)
        sv_b = np.zeros(sv_ab.size)
        sv_a[:min(m, n)] = scipy.linalg.svdvals(A)[:sv_ab.size]
        sv_b[:min(n, p)] = scipy.linalg.svdvals(B)[:sv_ab.size]
        na, nb = np.linalg.norm(A, 2), np.linalg.norm(B, 2)
        slack = 1e-12 * max(1.0, na * nb)
        assert np.all(sv_ab <= nb * sv_a + slack)
        assert np.all(sv_ab <= na * sv_b + slack)

    rng = make_rng("accept9:diag")
    for _ in range(100):
        blocks = [rng.normal(size=(rng.integers(1, 5), rng.integers(1, 5)))
                  for _ in range(rng.integers(2, 5))]
        whole = np.sort(scipy.linalg.svdvals(scipy.linalg.block_diag(*blocks)))
        parts = np.concatenate([scipy.linalg.svdvals(b) for b in blocks])
        # stacking tall blocks next to wide ones adds exact zeros
        parts = np.sort(np.concatenate(
            [np.zeros(whole.size - parts.size), parts]))
        assert np.max(np.abs(whole - parts)) <= 1e-12 * max(1.0, whole[-1])

    rng = make_rng("accept9:schur")
    for _ in range(100):
        dim = int(rng.integers(2, 11))
        M = random_spd(rng, dim)
        k = int(rng.integers(1, dim))
        J, B, N = M[:k, :k], M[k:, :k], M[k:, k:]
        assert np.linalg.eigvalsh(J)[0] > 0
        schur = N - B @ np.linalg.solve(J, B.T)
        assert np.linalg.eigvalsh(schur)[0] > 0

    def padded_sv(X, count):
        sv = scipy.linalg.svdvals(X)
        return np.sort(np.concatenate([np.zeros(count - sv.size), sv]))

    # the identity needs ker(upsilon) orthogonal to the isometry's range;
    # the class completion T only annihilates the deepest-block direction,
    # so check the identity with the exact kernel, and check T itself on
    # single-block classes where the two coincide
    for i in range(30):
        cs = type2_gadget(make_rng(f"accept9:proj:{i}"))
        cd = decompose(cs)
        alpha = next(c for c in cd.classes if not c.ground)
        U, _, _ = class_matrices(cs, cd, alpha)
        kernel = np.array([[1.0 / weight(cs, cd, alpha, x)
                            for x in alpha.uhat]])
        iso = scipy.linalg.null_space(kernel)
        full = padded_sv(U, alpha.q + 1)
        reduced = np.sort(np.concatenate(
            [[0.0], padded_sv(U @ iso, alpha.q)]))
        assert np.max(np.abs(full - reduced)) <= 1e-12 * full[-1]
    for i in range(30):
        cs = type2_gadget(make_rng(f"accept9:flat:{i}"), flat=True)
        cd = decompose(cs)
        alpha = next(c for c in cd.classes if not c.ground)
        assert alpha.p == 1
        U, T, _ = class_matrices(cs, cd, alpha)
        full = padded_sv(U, alpha.q + 1)
        reduced = np.sort(np.concatenate(
            [[0.0], padded_sv(U @ T, alpha.q)]))
        assert np.max(np.abs(full - reduced)) <= 1e-12 * full[-1]
    _done(9, t0, 5.0,
          "Fan, block-diagonal union, Schur positivity, projected spectra")
