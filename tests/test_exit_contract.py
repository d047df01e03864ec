"""The exit-code contract of ``analyze`` on drawn structure documents.

Every run exits 0 (a report), 2 (bad input) or 3 (an invariant violation),
prints a JSON error document when it fails, and never lets a traceback reach
stderr. A report evaluates every nonzero eigenvalue to a finite lambda and
log lambda. A document with a field of the wrong type or shape, or nested
too deeply to decode, exits 2.

The documents are short chains drawn with NaN, infinite, huge and tiny
values, parallel saddles, levels chained by the level tolerance, and
optionally one field replaced by a value of the wrong type or shape; the h
values reach down to subnormal numbers.
"""

import json
import math

from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from metastab.cli import main

ODD = [0.0, -0.0, -1.0, 5e-324, 1e-300, 1e300, 1.7e308, math.nan, math.inf,
       -math.inf, 10 ** 400]
# a Hessian entry: an odd value one time in five
VALUES = st.integers(0, 4).flatmap(lambda i: st.sampled_from(ODD) if i == 0
                                   else st.floats(0.1, 10.0))
H = st.sampled_from(["0.1", "0.5,0.1", "1e-3", "0.1,1e-320", "1e-320",
                     "5e-324", "1e300", "1.7e308"])

SCALARS = [None, True, False, 0, 0.5, "x", {}, [], [[]]]
NUMBER = [v for v in SCALARS if not isinstance(v, (int, float))
          or isinstance(v, bool)]
WRONG = {       # field kind -> values of the wrong type or shape
    "number": NUMBER,
    "id": [v for v in SCALARS if not isinstance(v, str)],
    "list": [v for v in SCALARS if not isinstance(v, list)],
    "entry": [v for v in SCALARS if not isinstance(v, dict)],
    "joins": [v for v in SCALARS if not isinstance(v, list)]
    + [["m0"], ["m0", "m1", "m2"], [0, 1]],
}
DEEP = "__deep__"


@st.composite
def chains(draw):
    """A chain document: minima m0..m{n-1}, saddle s_i joining m_i and
    m_{i+1}, levels on a grid whose step may be near the tolerance."""
    n = draw(st.integers(min_value=1, max_value=5))
    eps = draw(st.sampled_from([1e-9, 1e-3, 0.1]))
    step = draw(st.sampled_from([1.0, 1.0, 1.0, 0.5 * eps, eps, 2.0 * eps]))
    phis = [step * draw(st.integers(0, 4)) for _ in range(n)]
    minima = [{"id": f"m{i}", "phi": phis[i], "det_hess": draw(VALUES)}
              for i in range(n)]
    saddles = [{"id": f"s{i}",
                "phi": max(phis[i], phis[i + 1])
                + step * draw(st.integers(1, 4)),
                "det_hess": draw(VALUES), "neg_eig": draw(VALUES),
                "joins": [f"m{i}", f"m{i + 1}"]} for i in range(n - 1)]
    if saddles and draw(st.booleans()):
        twin = dict(draw(st.sampled_from(saddles)), id="p0")
        twin["phi"] += step * draw(st.integers(0, 2))
        saddles.append(twin)
    if draw(st.integers(0, 4)) == 0:
        # one odd value in place of a level
        entry = draw(st.sampled_from(minima + saddles))
        entry["phi"] = draw(st.sampled_from(ODD))
    return {"level_tolerance": eps, "minima": minima, "saddles": saddles}


@st.composite
def wrong_shapes(draw, doc):
    """The document with one field replaced by a value of the wrong type or
    shape, removed, or nested too deeply to decode."""
    places = [(doc, "minima", "list"), (doc, "level_tolerance", "number")]
    if "saddles" in doc:
        places.append((doc, "saddles", "list"))
    for m in doc["minima"]:
        places += [(m, "id", "id"), (m, "phi", "number"),
                   (m, "det_hess", "number")]
    for s in doc.get("saddles", []):
        places += [(s, "id", "id"), (s, "phi", "number"),
                   (s, "neg_eig", "number"), (s, "joins", "joins")]
    for key in ("minima", "saddles"):
        places += [(doc[key], i, "entry") for i in range(len(doc[key]))]
    obj, key, kind = draw(st.sampled_from(places))
    how = draw(st.sampled_from(["value", "deep", "missing"]))
    if how == "missing" and isinstance(obj, dict) and key not in (
            "level_tolerance", "saddles"):      # both may be left out
        del obj[key]
        return json.dumps(doc)
    obj[key] = DEEP if how == "deep" else draw(st.sampled_from(WRONG[kind]))
    depth = draw(st.sampled_from([5000, 200_000]))
    return json.dumps(doc).replace(
        f'"{DEEP}"', "[" * depth + "]" * depth)


@settings(max_examples=400)
@given(st.data(), H)
def test_analyze_keeps_the_exit_contract(data, h):
    doc = data.draw(chains())
    wrong = data.draw(st.booleans())
    text = data.draw(wrong_shapes(doc)) if wrong else json.dumps(doc)
    runner = CliRunner()
    with runner.isolated_filesystem():
        with open("s.json", "w") as fh:
            fh.write(text)
        res = runner.invoke(main, ["analyze", "s.json", "--h", h])
    assert res.exit_code in (0, 2, 3), res.output
    assert res.exception is None or isinstance(res.exception, SystemExit)
    assert "Traceback" not in res.stderr
    out = json.loads(res.stdout)
    if res.exit_code:
        assert set(out) == {"schema", "error"}
        assert set(out["error"]) == {"type", "message"}
    else:
        for step in out["evaluated"]:
            for e in step["eigenvalues"]:
                if e["S"] is not None:      # the ground state has S = inf
                    assert math.isfinite(e["lambda"])
                    assert math.isfinite(e["log_lambda"])
    if wrong:
        assert res.exit_code == 2, res.output
