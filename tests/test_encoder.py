"""Differential test of the report encoder: on the plain Python values a
report holds, ``cli.dumps`` must write the same bytes as the recursive
per-scalar encoder it replaced (``encoder_oracle``), and it must refuse any
other value."""

import math
import re
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

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

scalars = st.one_of(
    st.none(), st.booleans(), floats, st.integers(), text,
    # string parts of 21..25 characters around the part and total limits
    st.text("ab\"", min_size=19, max_size=23),
)

# bool, int and float keys that compare equal (True, 1, 1.0) write
# different texts
keys = st.one_of(text, st.integers(), st.booleans(), floats)

documents = st.recursive(
    st.one_of(scalars, st.dictionaries(keys, floats, max_size=4)),
    lambda kids: st.one_of(
        st.lists(kids, max_size=5),
        st.lists(kids, max_size=5).map(tuple),
        st.dictionaries(keys, kids, max_size=5)),
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
        rows = [[by_width[w] for w in widths] for _ in range(16)]
        out = dumps(rows)
        assert out == oracle(rows)
        assert out.startswith("[\n  [") and ("\n    " not in out) == inline


@pytest.mark.parametrize("bad", [{1, 2}, np.bool_(True), 1j, object()])
def test_unserializable_raises_like_oracle(bad):
    doc = {"ok": [1.0, "x"], "bad": [bad]}
    with pytest.raises(TypeError) as want:
        oracle(doc)
    with pytest.raises(TypeError, match=re.escape(str(want.value))):
        dumps(doc)


def test_signed_zero_and_non_finite():
    doc = {"a": [[0.0, -0.0, math.nan] for _ in range(8)],
           "b": [-0.0, math.inf, -math.inf, math.nan],
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


class Pair(NamedTuple):
    first: object
    second: object


class Record(dict):
    """A dict subclass."""


OUTSIDE = {"float64": np.float64(0.5), "int64": np.int64(7),
           "str_": np.str_("text"), "ndarray": np.array([1.0, 2.0]),
           "Pair": Pair(1.0, "x"), "Record": Record(a=1.0)}


@pytest.mark.parametrize("name", OUTSIDE)
def test_values_outside_the_exact_types_raise(name):
    """A report holds plain Python values only: a NumPy scalar or array, or
    a subclass of an accepted type, is refused as an item, a value and the
    whole document, naming its type."""
    bad = OUTSIDE[name]
    for doc in (bad, [1.0, bad], {"ok": "x", "bad": bad}):
        with pytest.raises(TypeError, match=f"cannot serialize {name}$"):
            dumps(doc)
