import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import sweep_oracle
from conftest import (ById, Minimum, Saddle, make_rng, members, minima,
                      random_tree_structure, saddle_rows, saddles,
                      type2_gadget)
from metastab.errors import InputDataError
from metastab.examples import build_example, ex_a, ex_b, ex_c, nine_wells
from metastab.landscape import CriticalStructure
from metastab.topology import decompose, merge_tree, verify_separating

INF = math.inf


def sublevel_components(cs, level):
    return sweep_oracle.sublevel_components(ById(cs), level)


def check_generic_assumption(cs):
    return sweep_oracle.check_generic_assumption(ById(cs))


def shifted(cs, c):
    return CriticalStructure(
        [Minimum(m.id, m.phi + c, m.det_hess) for m in minima(cs)],
        [Saddle(s.id, s.phi + c, s.det_hess, s.neg_eig, s.joins)
         for s in saddles(cs)], cs.level_tolerance)


# ------------------------------------------------------- sublevel components


def test_sublevel_components_three_wells():
    cs = ex_a().structure
    below = sublevel_components(cs, 2.0)
    assert below == [frozenset({"m11"}), frozenset({"m21"}),
                     frozenset({"m22"}), frozenset({"m23"})]
    assert sublevel_components(cs, INF) == [
        frozenset({"m11", "m21", "m22", "m23"})]
    assert sublevel_components(cs, 0.75) == [frozenset({"m11"}),
                                             frozenset({"m21"}),
                                             frozenset({"m22"})]


def test_sublevel_components_level_just_above_cluster():
    cs = ex_a().structure
    # a level strictly above the saddle cluster includes those saddles
    assert len(sublevel_components(cs, 2.5)) == 1
    # a level inside the cluster's tolerance band does not
    assert len(sublevel_components(cs, 2.0 + 1e-12)) == 4


def test_sublevel_components_match_union_find():
    for trial in range(25):
        rng = make_rng(f"sublevel-{trial}")
        cs = random_tree_structure(rng)
        level = float(rng.uniform(0.0, 4.0))
        got = sublevel_components(cs, level)
        # oracle: plain union-find over saddles strictly below the level,
        # restricted to minima strictly below it
        eps = cs.level_tolerance
        parent = {m.id: m.id for m in minima(cs) if m.phi < level - eps}

        def find(a):
            while parent[a] != a:
                a = parent[a]
            return a

        for s in saddles(cs):
            if s.phi < level - eps:
                ra, rb = find(s.joins[0]), find(s.joins[1])
                if ra != rb:
                    parent[max(ra, rb)] = min(ra, rb)
        comps = {}
        for mid in parent:
            comps.setdefault(find(mid), set()).add(mid)
        want = sorted((frozenset(v) for v in comps.values()), key=min)
        assert got == want


# ------------------------------------------------------- separating checks


def test_verify_separating_rejects_cycle_edge():
    doc = ex_a().structure
    extra = Saddle("s4", 3.0, 1.0, 1.0, ("m21", "m22"))
    with pytest.raises(InputDataError, match="already connected below"):
        verify_separating(
            CriticalStructure(minima(doc), saddles(doc) + (extra,)))


def test_verify_separating_rejects_disconnected():
    cs = CriticalStructure(
        [Minimum("m1", 0.0, 1.0), Minimum("m2", 0.0, 1.0),
         Minimum("m3", 0.0, 1.0)],
        [Saddle("s1", 1.0, 1.0, 1.0, ("m1", "m2"))])
    with pytest.raises(InputDataError, match="not connected"):
        verify_separating(cs)


def test_verify_separating_accepts_ring():
    # n saddles on n minima: the top saddle closes the loop but its endpoints
    # only connect strictly below it, which the merge tree accepts
    verify_separating(ex_c(5).structure)


# ---------------------------------------------------------------- labelling


def test_labelling_three_wells():
    lab = decompose(ex_a().structure).labelling
    assert lab.mbar == "m11"
    assert lab.sigma == {"m11": INF, "m21": 2.0, "m22": 2.0, "m23": 2.0}
    assert lab.S == {"m11": INF, "m21": 1.5, "m22": 1.5, "m23": 1.0}
    assert lab.index == {"m11": (1, 1), "m21": (2, 1), "m22": (2, 2),
                         "m23": (2, 3)}


def test_labelling_matches_reference_landscape():
    b = build_example("nine-wells")
    lab = decompose(b.structure).labelling
    want = {mid: tuple(ij) for mid, ij in b.reference["labels"].items()}
    assert lab.index == want
    assert lab.mbar == "m11"


def test_labelling_global_min_tie_breaks_by_id():
    cs = CriticalStructure(
        [Minimum("mb", 0.0, 1.0), Minimum("ma", 0.0, 1.0)],
        [Saddle("s1", 1.0, 1.0, 1.0, ("ma", "mb"))])
    lab = decompose(cs).labelling
    assert lab.mbar == "ma"
    assert lab.sigma["mb"] == 1.0


def test_labelling_fresh_component_labelled_by_deepest():
    # at the lower ssv cluster a fresh two-well component appears; its label
    # goes to the deeper minimum
    cs = CriticalStructure(
        [Minimum("m1", 0.0, 1.0), Minimum("m2", 0.4, 1.0),
         Minimum("m3", 0.2, 1.0)],
        [Saddle("s1", 2.0, 1.0, 1.0, ("m1", "m2")),
         Saddle("s2", 1.0, 1.0, 1.0, ("m2", "m3"))])
    lab = decompose(cs).labelling
    assert lab.sigma == {"m1": INF, "m2": 1.0, "m3": 2.0}
    assert lab.index == {"m1": (1, 1), "m3": (2, 1), "m2": (3, 1)}


def test_labelling_shift_invariant():
    base = decompose(nine_wells().structure).labelling
    moved = decompose(shifted(nine_wells().structure, 3.7)).labelling
    assert moved.index == base.index
    assert moved.mbar == base.mbar
    for mid, s in base.S.items():
        assert moved.S[mid] == pytest.approx(s) or (s == INF and
                                                    moved.S[mid] == INF)


# --------------------------------------------------------------------- maps


def test_maps_reference_landscape_types():
    b = nine_wells()
    cs = b.structure
    lab = decompose(cs).labelling
    want = {mid: t == "II" for mid, t in b.reference["types"].items()}
    assert lab.type2 == want


def test_maps_three_wells():
    cs = ex_a().structure
    lab = decompose(cs).labelling
    assert lab.mhat == {"m21": "m11", "m22": "m11", "m23": "m11"}
    tree = merge_tree(cs)
    node = tree.parent[lab.E["m21"]]
    assert members(cs, node) == {"m11", "m21", "m22", "m23"}
    assert lab.type2 == {"m21": False, "m22": False, "m23": False}
    assert members(cs, tree.kids[tree.kid_at[node]]) == {"m11"}


def test_maps_detect_type_two():
    # one conduit at the same height as a member, merged at one saddle level
    cs = CriticalStructure(
        [Minimum("m1", 0.0, 1.0), Minimum("m2", 0.0, 1.0)],
        [Saddle("s1", 1.0, 1.0, 1.0, ("m1", "m2"))])
    lab = decompose(cs).labelling
    assert lab.type2 == {"m2": True}
    assert lab.mhat["m2"] == "m1"


# ------------------------------------------------------------------ classes


def test_classes_three_wells():
    cs = ex_a().structure
    cd = decompose(cs)
    assert cd.ground.members == ("m11",)
    rest = cd.classes[1:]
    assert [c.members for c in rest] == [("m21", "m22"), ("m23",)]
    c = rest[0]
    assert not c.type2 and c.q == 2 and c.p == 1
    assert c.mhat == "m11" and members(cs, c.Ehat) == {"m11"}
    assert c.member_order == ("m21", "m22")
    # type I: the reference minimum is not part of the extended set
    assert c.uhat == ("m21", "m22")
    assert c.block_S == (1.5,)
    assert list(saddle_rows(cs, c)) == [
        ("s1", "m21", "m22", False),
        ("s2", "m22", "m11", True),
    ]
    c2 = rest[1]
    assert c2.members == ("m23",) and c2.q == 1 and not c2.type2
    assert list(saddle_rows(cs, c2)) == [
        ("s3", "m23", "m11", True),
    ]


def test_classes_reference_landscape():
    b = nine_wells()
    cd = decompose(b.structure)
    got = [{"members": list(c.members), "S": list(c.block_S)}
           for c in cd.classes[1:]]
    want = []
    for ref in b.reference["classes"]:
        if "S" not in ref:
            assert cd.ground.members == tuple(ref["members"])
        else:
            want.append({"members": ref["members"], "S": ref["S"]})
    # same classes, in the documented order
    assert [sorted(g["members"]) for g in got] == [sorted(w["members"])
                                                   for w in want]
    for g, w in zip(got, want):
        assert g["S"] == pytest.approx(w["S"])


def test_classes_two_block_type_two():
    # three members joined through the ground well at one saddle level, with
    # one member strictly shallower: two blocks inside a single type II class
    cs = CriticalStructure(
        [Minimum("m11", 0.0, 1.0), Minimum("m21", 0.0, 1.0),
         Minimum("m22", 0.0, 1.0), Minimum("m23", 0.5, 1.0)],
        [Saddle("s1", 3.0, 1.0, 1.0, ("m21", "m22")),
         Saddle("s2", 3.0, 1.0, 1.0, ("m22", "m11")),
         Saddle("s3", 3.0, 1.0, 1.0, ("m11", "m23"))])
    cd = decompose(cs)
    assert len(cd.classes) == 2
    c = cd.classes[1]
    assert c.type2
    assert c.members == ("m21", "m22", "m23")
    assert c.member_blocks == (("m23",), ("m21", "m22"))
    assert c.block_S == (2.5, 3.0)
    assert c.uhat[-1] == "m11"
    assert c.p == 2


def test_class_invariants_random():
    for trial in range(20):
        rng = make_rng(f"classes-{trial}")
        cs = random_tree_structure(rng)
        cd = decompose(cs)
        lab = cd.labelling
        seen = set()
        for c in cd.classes[1:]:
            assert not seen & set(c.members)
            seen.update(c.members)
            phis = {m.id: m.phi for m in minima(cs)}
            assert all(phis[c.mhat] <= phis[m] + cs.level_tolerance
                       for m in c.members)
            assert all(a < b for a, b in zip(c.block_S, c.block_S[1:]))
            for _, m1, m2, boundary in saddle_rows(cs, c):
                assert phis[m1] >= phis[m2] - cs.level_tolerance
                if boundary:
                    assert m2 == c.mhat
            # every member's sigma is the class's own
            assert {lab.sigma[m] for m in c.members} == {c.sigma}
        assert seen | set(cd.ground.members) == {m.id for m in minima(cs)}


def test_class_saddle_rows_cover_gadget():
    for trial in range(10):
        rng = make_rng(f"gadget-rows-{trial}")
        cs = type2_gadget(rng)
        cd = decompose(cs)
        c = cd.classes[1]
        assert c.type2
        rows = saddle_rows(cs, c)
        assert len(rows) >= c.q
        assert any(boundary for *_, boundary in rows)


# -------------------------------------------------------- generic assumption


def test_generic_assumption_witness_three_wells():
    ok, witness = check_generic_assumption(ex_a().structure)
    assert not ok
    assert witness["condition"] == "unique-maximal-saddle"
    assert witness["component"] == ["m11"]
    assert witness["saddles"] == ["s2", "s3"]


def test_generic_assumption_unique_minimum_witness():
    cs = CriticalStructure(
        [Minimum("m1", 0.0, 1.0), Minimum("m2", 0.0, 1.0)],
        [Saddle("s1", 1.0, 1.0, 1.0, ("m1", "m2"))])
    ok, witness = check_generic_assumption(cs)
    assert not ok
    assert witness["condition"] == "unique-minimum"
    assert sorted(witness["tied_minima"]) == ["m1", "m2"]


def test_generic_assumption_holds_on_generic_trees():
    for trial in range(10):
        rng = make_rng(f"ga-{trial}")
        cs = random_tree_structure(rng)
        ok, witness = check_generic_assumption(cs)
        assert ok and witness is None


def test_generic_structures_have_singleton_classes():
    for trial in range(10):
        rng = make_rng(f"ga-singleton-{trial}")
        cs = random_tree_structure(rng)
        cd = decompose(cs)
        assert all(c.q == 1 for c in cd.classes[1:])


# ---------------------------------------------------------------- properties


@given(st.floats(min_value=-20.0, max_value=20.0, allow_nan=False))
def test_decomposition_shift_invariant(c):
    base = decompose(nine_wells().structure)
    moved = decompose(shifted(nine_wells().structure, c))
    assert [cl.members for cl in moved.classes] == [cl.members
                                                    for cl in base.classes]
    assert [cl.type2 for cl in moved.classes] == [cl.type2
                                                  for cl in base.classes]
    for a, b in zip(moved.classes[1:], base.classes[1:]):
        assert a.block_S == pytest.approx(b.block_S)


@given(st.integers(min_value=0, max_value=10 ** 6))
def test_decomposition_ignores_id_order(seed):
    rng = np.random.default_rng(seed)
    cs = ex_b().structure
    perm_m = list(minima(cs))
    perm_s = list(saddles(cs))
    rng.shuffle(perm_m)
    rng.shuffle(perm_s)
    cd1 = decompose(CriticalStructure(perm_m, perm_s, cs.level_tolerance))
    cd2 = decompose(cs)
    assert [c.members for c in cd1.classes] == [c.members
                                                for c in cd2.classes]
    assert [c.uhat for c in cd1.classes[1:]] == [c.uhat
                                                 for c in cd2.classes[1:]]
