"""Differential test of the report encoder: ``cli.dumps`` must write the same
bytes as the recursive per-scalar encoder it replaced (``encoder_oracle``)."""

import math
import re
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from encoder_oracle import dumps as oracle
from metastab.cli import dumps

# Values whose 17-digit forms have lengths 1, 2, 3, 9, 19, 20, 23 and 24, so
# that rows of them straddle the 23/24-character part limit and the
# 71/72-character total.
POOL = [0.0, -0.0, 1.0, 0.5, 123456789.0, 0.1, -0.1, 1.0 / 3.0, -1.0 / 3.0,
        5e-324, -5e-324, math.nan, math.inf, -math.inf]

floats = st.one_of(st.sampled_from(POOL),
                   st.floats(allow_nan=True, allow_infinity=True))
text = st.text(st.one_of(st.sampled_from('"\\\n\t\x00\x1f\x7f é€😀'),
                         st.characters()), max_size=12)


def _arrays(dtype, elements):
    return hnp.arrays(dtype, hnp.array_shapes(min_dims=0, max_dims=2,
                                              min_side=0, max_side=7),
                      elements=elements)


arrays = st.one_of(
    _arrays(np.float64, floats),
    _arrays(np.float64, st.sampled_from(POOL)),
    _arrays(np.float32, st.floats(width=32)),
    _arrays(np.int64, st.integers(-2**63, 2**63 - 1)),
    _arrays(np.int32, st.integers(-2**31, 2**31 - 1)),
    # big enough for the by-value path, transposed so it is not contiguous
    hnp.arrays(np.float64, st.tuples(st.integers(1, 9), st.integers(2, 9)),
               elements=st.sampled_from(POOL)).map(lambda a: a.T),
    hnp.arrays(np.float64, st.integers(16, 40), elements=st.sampled_from(POOL)),
)

scalars = st.one_of(
    st.none(), st.booleans(), floats, st.integers(), text,
    floats.map(np.float64), st.floats(width=32).map(np.float32),
    st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.integers(-2**31, 2**31 - 1).map(np.int32),
    # string parts of 21..25 characters around the part and total limits
    st.text("ab\"", min_size=19, max_size=23),
    text.map(np.str_),
)


class Pair(NamedTuple):
    first: object
    second: object


class Record(dict):
    """A dict subclass: written as a dict, but not by the exact-type path."""


# bool, int and float keys that compare equal (True, 1, 1.0) write
# different texts; np.str_ keys are not of the exact type str
keys = st.one_of(text, st.integers(), st.booleans(), floats,
                 text.map(np.str_))

documents = st.recursive(
    st.one_of(scalars, arrays,
              st.dictionaries(keys, floats.map(np.float64), max_size=4)),
    lambda kids: st.one_of(
        st.lists(kids, max_size=5),
        st.lists(kids, max_size=5).map(tuple),
        st.builds(Pair, kids, kids),
        st.dictionaries(keys, kids, max_size=5),
        st.dictionaries(keys, kids, max_size=5).map(Record)),
    max_leaves=30)


@given(documents, st.integers(0, 3))
def test_dumps_matches_oracle(doc, indent):
    assert dumps(doc, indent) == oracle(doc, indent)


@pytest.mark.parametrize("widths, inline", [
    ((23, 23, 23), True),       # parts at 23, total 69
    ((23, 24), False),          # one part at 24
    ((23, 23, 23, 2), True),    # total 71
    ((23, 23, 23, 3), False),   # total 72
])
def test_inline_limits(widths, inline):
    """Strings, lists and float rows alike: a part is under 24 characters
    and the parts total under 72, or the list spans lines."""
    strings = ["x" * (w - 2) for w in widths]
    by_width = {1: 0.0, 2: -0.0, 3: 0.5, 19: 0.1, 20: -0.1, 23: 5e-324,
                24: -5e-324}
    for doc in (strings, tuple(strings)):
        out = dumps(doc)
        assert out == oracle(doc)
        assert ("\n" not in out) == inline
    if all(w in by_width for w in widths):
        row = [by_width[w] for w in widths]
        arr = np.array([row] * 16)
        out = dumps(arr)
        assert out == oracle(arr)
        assert out.startswith("[\n  [") and ("\n    " not in out) == inline


@pytest.mark.parametrize("bad", [{1, 2}, np.bool_(True), 1j, object(),
                                 np.array("text")])
def test_unserializable_raises_like_oracle(bad):
    doc = {"ok": [1.0, "x"], "bad": [bad]}
    with pytest.raises(TypeError) as want:
        oracle(doc)
    with pytest.raises(TypeError, match=re.escape(str(want.value))):
        dumps(doc)


def test_signed_zero_and_non_finite():
    doc = {"a": np.array([[0.0, -0.0, math.nan]] * 8),
           "b": [np.float32(-0.0), math.inf, -math.inf, np.float64(math.nan)],
           "c": -0.0, "d": math.inf, "e": -math.inf, "f": math.nan}
    out = dumps(doc)
    assert out == oracle(doc)
    assert out.count("-0") == 10 and "inf" not in out and "nan" not in out
    assert out.count("null") == 8 + 3 + 3
    for x in (math.inf, -math.inf, math.nan):
        assert dumps(x) == oracle(x) == "null"
    assert dumps(-0.0) == oracle(-0.0) == "-0"


def test_shared_tuple_at_several_indents():
    """The text of a tuple is reused only at the indent it was made for: one
    member tuple, long enough to span lines, recurs at three depths and
    several times at one of them, as a large class's members do."""
    members = tuple(f"m{i:03d}" for i in range(30))
    pair = ("a", "b")
    doc = {"top": members,
           "classes": [{"members": members, "pair": pair}],
           "evaluated": [{"eigenvalues": [{"class": members, "pair": pair}] * 3}]}
    assert dumps(doc) == oracle(doc)


def test_equal_keys_of_different_types():
    """True, 1 and 1.0 are one dict key but three texts, so a cache of key
    text must not hand the text of one to another at the same indent."""
    doc = [{True: 0.5}, {1: 0.5}, {1.0: 0.5}, {"1": 0.5}, {np.str_("1"): 0.5}]
    out = dumps(doc)
    assert out == oracle(doc)
    assert [line.split(":")[0].strip() for line in out.splitlines()
            if ":" in line] == ['"True"', '"1"', '"1.0"', '"1"', '"1"']
    nested = {"a": {True: 1, "x": [{1: 2}]}, "b": {1.0: 3, "x": [{False: 4}]}}
    assert dumps(nested, 2) == oracle(nested, 2)


def test_values_outside_the_exact_types():
    """Subclasses and NumPy scalars leave the exact-type path and are written
    as the oracle writes them, as items, values and keys, and at several
    indents."""
    members = Pair("m" * 30, np.str_("n" * 30))
    doc = Record({
        np.str_("key"): np.float64(-0.0),
        "pair": Pair(np.float64(0.1), np.str_("é\n")),
        "pairs": [members, members, Pair(True, None)],
        "nested": Record({"members": members, "inf": np.float64(math.inf)}),
        "items": [np.str_("a"), np.float64(1.0 / 3.0), np.int64(-7), False,
                  1.5, "b", 2],
    })
    for indent in range(3):
        assert dumps(doc, indent) == oracle(doc, indent)
