"""The exit-code contract of ``analyze`` on drawn structure documents, and
of ``validate`` on drawn sample files.

Every run exits 0 (a report), 2 (bad input) or 3 (an invariant violation),
prints a JSON error document when it fails, and never lets a traceback reach
stderr. A report evaluates every nonzero eigenvalue to a finite lambda and
log lambda. A document with a field of the wrong type or shape, or nested
too deeply to decode, exits 2.

The documents are short chains drawn with NaN, infinite, huge and tiny
values, parallel saddles, levels chained by the level tolerance, and
optionally one field replaced by a value of the wrong type or shape; the h
values reach down to subnormal numbers. A NumPy RuntimeWarning, such as an
overflow on the way to a result or to an error, fails the test.

``validate`` gets sampled potentials with defects, h from 5e-324 to 1e308
and grid sizes up to 10^9; the ``metastab-long`` hypothesis profile of
``conftest.py`` reruns it with twenty times the examples.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from metastab import cli
from metastab.cli import main
from test_validator import _limit_address_space

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


@pytest.mark.filterwarnings("error::RuntimeWarning")
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
        # the warning filter turns a NumPy overflow into an exception, which
        # the CLI would report as exit 3
        assert out["error"]["type"] != "RuntimeWarning", out
    else:
        for step in out["evaluated"]:
            for e in step["eigenvalues"]:
                if e["S"] is not None:      # the ground state has S = inf
                    assert math.isfinite(e["lambda"])
                    assert math.isfinite(e["log_lambda"])
    if wrong:
        assert res.exit_code == 2, res.output


# ---------------------------------------------------------------- validate

SHAPES = {
    "double well": lambda x: (x * x - 1.0) ** 2,
    "tilted": lambda x: (x * x - 1.0) ** 2 + 0.3 * x,
    "triple well": lambda x: x * x * (x * x - 1.5) ** 2,
    "one well": lambda x: x * x,
    "monotone": lambda x: x,
}
# the valid choice first and most often, so that many drawn files reach the
# solver
DEFECTS = [None, None, None, "nan", "inf", "unsorted", "duplicate"]
# the h lists and grid sizes that, unchecked, ask for grids of gigabytes
BIG_H = ["1e-12", "5e-324"]
BIG_GRID = 10 ** 9


@st.composite
def sample_files(draw):
    """A sampled-potential CSV: a drawn shape and row count, x possibly
    scaled far out of the range the quartic fits support, up to differences
    beyond float range, and possibly one defect: a non-finite value, two
    rows swapped, or a repeated x."""
    rows = draw(st.sampled_from([401, 401, 41, 5, 4, 1]))
    x = np.linspace(-2.0, 2.0, rows)
    phi = SHAPES[draw(st.sampled_from(list(SHAPES)))](x)
    x *= draw(st.sampled_from([1.0, 1.0, 1.0, 1e200, 1e-200, 8e307]))
    defect = draw(st.sampled_from(DEFECTS))
    i = draw(st.integers(1, rows - 1)) if rows > 1 else 0
    if defect in ("nan", "inf"):
        (x if draw(st.booleans()) else phi)[i] = float(defect)
    elif defect == "unsorted":
        x[[i - 1, i]] = x[[i, i - 1]]
    elif defect == "duplicate":
        x[i] = x[i - 1]
    return "x,phi\n" + "".join(
        f"{a!r},{b!r}\n" for a, b in zip(x.tolist(), phi.tolist()))


def _validate_in_a_child(path, args):
    """``metastab validate`` in a child limited to 1 GiB of address space:
    (exit code, stdout, stderr)."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    res = subprocess.run(
        [sys.executable, "-m", "metastab.cli", "validate", path, *args],
        env=env, capture_output=True, text=True,
        preexec_fn=_limit_address_space)
    return res.returncode, res.stdout, res.stderr


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=settings.default.max_examples // 2)
@given(sample_files(),
       st.sampled_from(["0.3,0.2", "0.3,0.2", "1e152", "1e308"] + BIG_H),
       st.sampled_from([None, None, 4000, 100, BIG_GRID]))
def test_validate_keeps_the_exit_contract(tmp_path_factory, text, h, grid):
    """``validate`` exits 0, 2 or 3 on drawn samples, h lists and grid
    sizes, with no traceback and no warning. A case that, unchecked, would
    build a grid of gigabytes runs in a child under a 1 GiB address-space
    limit; the others run in-process, where a NumPy RuntimeWarning fails
    the test."""
    path = str(tmp_path_factory.mktemp("validate") / "s.csv")
    with open(path, "w") as fh:
        fh.write(text)
    args = ["--h", h] + ([] if grid is None else ["--grid", str(grid)])
    if h in BIG_H or grid == BIG_GRID:
        code, stdout, stderr = _validate_in_a_child(path, args)
    else:
        res = CliRunner().invoke(main, ["validate", path, *args])
        assert res.exception is None or isinstance(res.exception, SystemExit)
        code, stdout, stderr = res.exit_code, res.stdout, res.stderr
    assert code in (0, 2, 3), stdout + stderr
    assert "Traceback" not in stderr and "Warning" not in stderr, stderr
    out = json.loads(stdout)
    if code:
        assert set(out) == {"schema", "error"}
        assert out["error"]["type"] != "RuntimeWarning", out
