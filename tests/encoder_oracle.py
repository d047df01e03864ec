"""The recursive per-scalar JSON encoder that ``metastab.cli.dumps``
replaced, kept verbatim as the oracle of the differential encoder test."""

import math

import numpy as np


def _scalar(x):
    if x is None:
        return "null"
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        v = float(x)
        return f"{v:.17g}" if math.isfinite(v) else "null"
    raise TypeError(f"cannot serialize {type(x).__name__}")


def dumps(obj, indent=0):
    """Deterministic JSON: insertion-ordered keys, 17 significant digits,
    non-finite floats rendered as null."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, str):
        out = ['"']
        for ch in obj:
            if ch in '"\\':
                out.append("\\" + ch)
            elif ch < " ":
                out.append(f"\\u{ord(ch):04x}")
            else:
                out.append(ch)
        out.append('"')
        return "".join(out)
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f"{inner}{dumps(str(k))}: {dumps(v, indent + 1)}"
                 for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        parts = [dumps(v, indent + 1) for v in obj]
        if all(len(p) < 24 and "\n" not in p for p in parts) \
                and sum(len(p) for p in parts) < 72:
            return "[" + ", ".join(parts) + "]"
        return "[\n" + ",\n".join(inner + p for p in parts) + f"\n{pad}]"
    return _scalar(obj)
