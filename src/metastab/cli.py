"""Command-line surface: analyze landscapes, validate predictions, run the
bundled examples. ``main`` parses the command line with the standard
library's argparse. All output is versioned JSON with fixed float
formatting, so identical invocations produce identical bytes."""

import gc
import math
import os
import re
import sys
from pathlib import Path

# One OpenBLAS thread unless the caller chose otherwise: the dense ring
# spectrum changes in its last digits with the thread count, and the report
# bytes must not. It only takes effect before NumPy loads OpenBLAS.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import __version__
from .errors import InputDataError
from .landscape import (extract_critical_structure, load_samples,
                        load_structure, structure_to_dict)
from .spectra import full_spectrum
from .topology import decompose, merge_tree

# ``examples`` and ``validator`` load inside the commands that use them, so
# that importing the CLI and ``analyze`` never compile or run them; their
# functions are looked up on their modules at each call.

SCHEMA = "metastab/2"


# ---------------------------------------------------------------- formatting

_ESCAPE = re.compile(r'["\\\x00-\x1f]')


def _escape(m):
    ch = m.group()
    return "\\" + ch if ch in '"\\' else f"\\u{ord(ch):04x}"


def dumps(obj):
    """Deterministic JSON: insertion-ordered keys, 17 significant digits,
    -0 kept, non-finite floats rendered as null.

    A document holds exactly dict, list, tuple, str, float, int, bool and
    None, and is written as the recursive encoder of
    ``tests/encoder_oracle.py`` writes it; dict keys are written as
    ``str(key)``. Any other value, a subclass such as a named tuple or a
    NumPy scalar or array included, raises ``TypeError`` naming its type.
    Dispatch is on the exact type: a container loop writes its str and
    float items and values in place and hands a dict or list value (a dict
    item) straight to the container writer, and a one-item list or tuple
    skips the loop. One call shares, across the document, the text of each
    string, of each nonzero finite float by value (0.0 and -0.0 are one
    key with two texts, so neither is kept; NaN and the infinities are
    null), the line start of each str key at each indent, and the text of
    each tuple at each indent (a class's member tuple recurs once per
    eigenvalue of the class). Each container's text is made by a single
    join, so the text of a large item is copied about once per enclosing
    container, where a chain of ``+`` would copy it once per operator. The
    encoding functions refer to each other, so they are cleared on return:
    the call leaves no cycle for the collector."""
    strings = {}
    floats = {}    # nonzero finite float -> its text
    keys = {}      # indent -> {str key -> its line start up to the value}
    # (id, indent) -> text; the document keeps every tuple alive, so no id
    # is reused
    tuples = {}

    def string(s):
        # no character that needs an escape is alphanumeric
        out = strings[s] = (f'"{s}"' if s.isalnum()
                            else f'"{_ESCAPE.sub(_escape, s)}"')
        return out

    # v - v == 0.0 is math.isfinite(v) without a call: it holds for every
    # finite float and for neither infinity nor NaN
    def real(v):        # the text of a float not in ``floats``
        if v - v != 0.0:
            return "null"
        out = f"{v:.17g}"
        if v:
            floats[v] = out
        return out

    def encode(obj, indent):
        t = type(obj)
        if t is float:
            return floats.get(obj) or real(obj)
        if t is str:
            return strings.get(obj) or string(obj)
        if t is dict:
            return mapping(obj, indent)
        if t is list:
            return sequence(obj, indent)
        if t is tuple:
            key = (id(obj), indent)
            out = tuples.get(key)
            if out is None:
                out = tuples[key] = sequence(obj, indent)
            return out
        if t is int:
            return f"{obj}"
        return generic(obj)

    def generic(obj):
        if obj is None:
            return "null"
        if obj is True:
            return "true"
        if obj is False:
            return "false"
        raise TypeError(f"cannot serialize {type(obj).__name__}")

    def mapping(obj, indent):
        if not obj:
            return "{}"
        texts = keys.get(indent)
        if texts is None:
            texts = keys[indent] = {}
        sub = indent + 1
        inner = "  " * sub
        parts = ["{\n"]
        append = parts.append
        for k, v in obj.items():
            # only exact str keys are cached: True, 1 and 1.0 are one dict
            # key but three texts
            if type(k) is str:
                kt = texts.get(k)
                if kt is None:
                    kt = texts[k] = f"{inner}{strings.get(k) or string(k)}: "
            else:
                k = str(k)
                kt = f"{inner}{strings.get(k) or string(k)}: "
            append(kt)
            t = type(v)
            if t is float:
                append(floats.get(v) or real(v))
            elif t is str:
                append(strings.get(v) or string(v))
            elif t is list:
                append(sequence(v, sub))
            elif t is dict:
                append(mapping(v, sub))
            else:
                append(encode(v, sub))
            append(",\n")
        parts[-1] = f"\n{'  ' * indent}}}"
        return "".join(parts)

    def sequence(obj, indent):
        if not obj:
            return "[]"
        sub = indent + 1
        if len(obj) == 1:
            v = obj[0]
            t = type(v)
            if t is str:
                part = strings.get(v) or string(v)
            elif t is float:
                part = floats.get(v) or real(v)
            else:
                part = encode(v, sub)
            if len(part) < 24 and "\n" not in part:
                return f"[{part}]"
            return f"[\n{'  ' * sub}{part}\n{'  ' * indent}]"
        parts = []
        append = parts.append
        for v in obj:
            t = type(v)
            if t is str:
                append(strings.get(v) or string(v))
            elif t is float:
                append(floats.get(v) or real(v))
            elif t is int:
                append(f"{v}")
            elif t is dict:
                append(mapping(v, sub))
            else:
                append(encode(v, sub))
        # a list is inline iff every part is under 24 characters, none
        # spans lines, and the parts total under 72 characters
        if sum(map(len, parts)) < 72 and max(map(len, parts)) < 24:
            line = ", ".join(parts)
            if "\n" not in line:
                return f"[{line}]"
        inner = "  " * sub
        parts[0] = f"[\n{inner}{parts[0]}"
        parts[-1] = f"{parts[-1]}\n{'  ' * indent}]"
        return f",\n{inner}".join(parts)

    try:
        return encode(obj, 0)
    finally:
        del encode, mapping, sequence


# ------------------------------------------------------------ report pieces

def _merge_tree_block(tree):
    """One row per merge-tree node, by birth cluster, leaves first, then
    smallest minimum, so children come before parents; and the row number
    of each node."""
    n = len(tree.ids)
    nodes = sorted(range(len(tree.born)),
                   key=lambda v: (tree.born[v], v >= n, tree.low[v]))
    num = [0] * len(nodes)
    for i, v in enumerate(nodes):
        num[v] = i
    ids, parent, deepest = tree.ids, tree.parent, tree.deepest
    rows = [[tree.born[v], None if parent[v] < 0 else num[parent[v]],
             ids[deepest[v]]] for v in nodes]
    return {"columns": ["born", "parent", "deepest"], "nodes": rows}, num


def _labelling_block(lab, num):
    minima = {}
    for mid in sorted(lab.index):
        i, j = lab.index[mid]
        row = {"index": [i, j],
               "sigma": lab.sigma[mid],
               "S": lab.S[mid],
               "component": num[lab.E[mid]]}
        if mid != lab.mbar:
            row["type"] = "II" if lab.type2[mid] else "I"
            row["ref_min"] = lab.mhat[mid]
        minima[mid] = row
    return {"global_min": lab.mbar, "minima": minima}


def _saddle_rows(sad_ids, alpha, upsilon):
    """Saddle rows of a class by id, formed from its ``cells``, with their
    nonzero Upsilon entries: at m1, then at m2 unless m2 lies outside the
    extended set, where it is the reference minimum."""
    uhat, mhat, q = alpha.uhat, alpha.mhat, alpha.q
    rows = []
    for i, (s, j1, j2) in enumerate(alpha.cells):
        coef = [upsilon.item(i, j1)]
        if j2 >= 0:
            coef.append(upsilon.item(i, j2))
        rows.append({"saddle": sad_ids[s], "m1": uhat[j1],
                     "m2": uhat[j2] if j2 >= 0 else mhat,
                     "kind": "interior" if 0 <= j2 < q else "boundary",
                     "upsilon": coef})
    return rows


def _class_block(alpha, upsilon, theta0, levels, sad_ids):
    if alpha.ground:
        return {"members": list(alpha.members), "ground": True,
                "levels": [{"S": None, "zeta2": [0.0], "pi_zeta2": [0.0]}]}
    out = {"members": list(alpha.members),
           "ground": False,
           "type": "II" if alpha.type2 else "I",
           "q": alpha.q,
           "p": alpha.p,
           "sigma": alpha.sigma,
           "ref_min": alpha.mhat,
           "blocks": [{"members": list(b), "S": s}
                      for b, s in zip(alpha.member_blocks, alpha.block_S)],
           "member_order": list(alpha.member_order),
           "uhat_order": list(alpha.uhat),
           "saddle_rows": _saddle_rows(sad_ids, alpha, upsilon)}
    if alpha.type2:
        out["theta0"] = theta0.tolist()
    rows = out["levels"] = []
    for S, zeta2 in zip(alpha.block_S, levels):
        zeta2 = zeta2.tolist()
        rows.append({"S": S, "zeta2": zeta2,
                     "pi_zeta2": [math.pi * z for z in zeta2]})
    return out


def _evaluated_block(report, h_list):
    out = []
    for h in h_list:
        entries = [{"lambda": e.lam,
                    "log_lambda": e.log_lam,
                    "S": e.S,
                    "zeta2": e.zeta2,
                    "pi_zeta2": math.pi * e.zeta2,
                    "class": e.members}
                   for e in report.evaluate(h)]
        out.append({"h": h, "eigenvalues": entries})
    return out


def analyze_document(cs, h_list=()):
    report = full_spectrum(cs, decompose(cs))
    tree, num = _merge_tree_block(merge_tree(cs))
    rows = zip(report.cd.classes, report.upsilon, report.theta0, report.levels)
    doc = {"schema": SCHEMA,
           "command": "analyze",
           "block_order": "ascending-S",
           "structure": dict(structure_to_dict(cs),
                             level_clusters=list(cs.level_reps)),
           "labelling": _labelling_block(report.cd.labelling, num),
           "merge_tree": tree,
           "classes": [_class_block(*row, cs.sad_ids) for row in rows]}
    if h_list:
        doc["evaluated"] = _evaluated_block(report, h_list)
    return doc, report


def validation_document(vrep, source, h_list):
    """The validation report; its ``h`` is the schedule ``compare`` ran,
    largest first, not ``h_list`` as given with its repeats."""
    from . import validator
    steps = []
    for s in vrep.steps:
        rows = [{"index": i + 1,
                 "numeric": s.numeric[i],
                 "predicted": s.predicted[i],
                 "ratio": s.ratios[i],
                 "deviation": s.deviations[i],
                 "grid_drift": s.richardson[i]}
                for i in range(len(s.numeric))]
        steps.append({"h": s.h, "grid": s.n, "eigenvalues": rows})
    overall = next((v for v in ("FAIL", "INCONCLUSIVE")
                    if v in vrep.verdicts), "PASS")
    return {"schema": SCHEMA,
            "command": "validate",
            "input": source,
            "h": [s.h for s in vrep.steps],
            "c_tol": validator._C_TOL,
            "nonzero_count": vrep.n0 - 1,
            "steps": steps,
            "verdicts": list(vrep.verdicts),
            "overall": overall}


# ------------------------------------------------------------------- helpers

class UsageError(Exception):
    """A command line that ``main`` rejects with exit 2."""


def _parse_h(text):
    try:
        hs = tuple(float(x) for x in text.split(",") if x.strip())
    except ValueError:
        raise UsageError(f"cannot parse h list {text!r}")
    if not hs or any(not (h > 0 and math.isfinite(h)) for h in hs):
        raise UsageError("h values must be positive finite reals")
    return hs


def _emit(doc, out):
    """Write the document to ``out``, or else to stdout, in UTF-8."""
    data = (dumps(doc) + "\n").encode("utf-8")
    if out:
        Path(out).write_bytes(data)
    else:
        sys.stdout.buffer.write(data)


def _plot_table(out, source, rows):
    path = (Path(out).with_suffix(".levels.csv") if out
            else Path(source).name + ".levels.csv")
    lines = ["h,index,predicted,numeric"]
    for h, idx, pred, num in rows:
        lines.append(f"{h:.17g},{idx},{pred:.17g}," +
                     (f"{num:.17g}" if num is not None else ""))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _guard(fn):
    """Run a command's body, turning its errors into the exit-code contract.

    The cyclic collector is off meanwhile and restored on return. The
    commands make no reference cycles, but their objects trigger full
    collections that find nothing: about a quarter of a 10^5-minimum
    ``analyze``."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return fn()
    except Exception as e:  # exit 2 for bad input, else 3
        error = {"type": type(e).__name__, "message": str(e)}
        _emit({"schema": SCHEMA, "error": error}, None)
        sys.exit(2 if isinstance(e, (InputDataError, OSError)) else 3)
    finally:
        if enabled:
            gc.enable()


def _load_input(path, eps_level):
    with open(path, "rb") as fh:
        head = fh.read(64).lstrip()
    if path.endswith(".json") or head.startswith(b"{"):
        # a Path, so that a file name starting with "{" is not read as JSON
        return load_structure(Path(path)), None
    p = load_samples(path)
    return extract_critical_structure(p, eps_level=eps_level), p


# ------------------------------------------------------------------ commands

def analyze(path, h_text, eps_level, out, emit_plots):
    """Report labelling, classes, matrices, and predicted eigenvalues."""
    h_list = _parse_h(h_text) if h_text else ()
    if emit_plots and not h_list:
        raise UsageError("--emit-plots needs --h")

    def run():
        cs, _ = _load_input(path, eps_level)
        doc, report = analyze_document(cs, h_list)
        _emit(doc, out)
        if emit_plots:
            _plot_table(out, path, [(h, i, e.lam, None) for h in h_list
                                    for i, e in enumerate(report.evaluate(h))])

    _guard(run)


def validate(csv, h_text, grid, eps_level, out, emit_plots):
    """Check predictions against a direct solve of the sampled potential."""
    h_list = _parse_h(h_text)
    if grid is not None and grid < 100:
        raise UsageError("--grid must be at least 100")

    def run():
        from . import validator
        p = load_samples(csv)
        cs = extract_critical_structure(p, eps_level=eps_level)
        report = full_spectrum(cs, decompose(cs))
        vrep = validator.compare(report, p, h_list, grid=grid)
        _emit(validation_document(vrep, csv, h_list), out)
        if emit_plots:
            _plot_table(out, csv, [
                (s.h, i + 1, s.predicted[i], s.numeric[i])
                for s in vrep.steps for i in range(len(s.numeric))])

    _guard(run)


def example(name, n, theta, out):
    """Run a bundled example and print reference values alongside."""

    def run():
        from . import examples
        bundle = examples.build_example(name, n=n, theta=theta)
        cs, p = bundle.structure, bundle.potential
        if cs is None:
            cs = extract_critical_structure(p)
        doc, report = analyze_document(cs, bundle.validate_h)
        doc["command"] = "example"
        doc["example"] = {"name": bundle.name,
                          "realization": bundle.realization,
                          "reference": bundle.reference}
        if p is not None and bundle.validate_h:
            from . import validator
            vrep = validator.compare(report, p, bundle.validate_h)
            doc["validation"] = validation_document(
                vrep, bundle.name, bundle.validate_h)
        _emit(doc, out)

    _guard(run)


def main(argv=None):
    """Parse and run the command line ``argv``, default ``sys.argv[1:]``."""
    import argparse     # only a launch parses a command line

    def parser(**kw):   # options match whole; --help is the only help flag
        p = argparse.ArgumentParser(add_help=False, allow_abbrev=False, **kw)
        p.add_argument("--help", action="help",
                       help="Show this message and exit.")
        return p

    def file(path):
        if os.path.isdir(path) or not os.path.exists(path):
            raise argparse.ArgumentTypeError(
                f"file {path!r} does not exist or is a directory")
        return path

    top = parser(prog="metastab", description=(
        "Small-eigenvalue asymptotics for Morse landscapes.\n\n"
        "Computes, for each equivalence class of local minima, the barrier\n"
        "heights and prefactors of the exponentially small spectrum, and can\n"
        "check the predictions against a direct 1D discretization."),
        formatter_class=argparse.RawDescriptionHelpFormatter)
    top.add_argument("--version", action="version",
                     version=f"metastab, version {__version__}",
                     help="Show the version and exit.")
    sub = top.add_subparsers(required=True, metavar="COMMAND",
                             parser_class=parser)

    def command(fn, dest, **kw):
        p = sub.add_parser(fn.__name__, help=fn.__doc__,
                           description=fn.__doc__)
        p.set_defaults(command=(fn, p))
        p.add_argument(dest, metavar=dest.upper(), **kw)
        p.add_argument("--out", metavar="PATH",
                       help="Write the report here instead of stdout.")
        return p.add_argument

    plots = "Also write an (h, index, predicted, numeric) CSV table."
    option = command(analyze, "path", type=file)
    option("--h", dest="h_text", metavar="H",
           help="Comma-separated h values to evaluate, e.g. 0.15,0.1.")
    option("--eps-level", type=float,
           help="Level-clustering tolerance for sampled input.")
    option("--emit-plots", action="store_true", help=plots)
    option = command(validate, "csv", type=file)
    option("--h", dest="h_text", metavar="H", required=True,
           help="Comma-separated h schedule, largest first.")
    option("--grid", type=int, help="Interior grid size for the direct solve.")
    option("--eps-level", type=float,
           help="Level-clustering tolerance for the extraction.")
    option("--emit-plots", action="store_true", help=plots)
    option = command(example, "name")
    option("--n", type=int, help="Ring size for ex-c.")
    option("--theta", type=float, help="Exit-saddle parameter for ex-b.")

    args = vars(top.parse_args(argv))
    fn, p = args.pop("command")
    try:
        fn(**args)
    except UsageError as e:
        p.error(str(e))


if __name__ == "__main__":
    main()
