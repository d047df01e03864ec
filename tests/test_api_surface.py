"""No library code that only tests call.

Every top-level function and class of ``metastab`` and every method other
than a dunder must be named somewhere in the package or in ``bench/``
outside its own definition. A top-level name counts when it occurs as an
identifier, an attribute or an imported name, or as a string in
``bench/spans.py``, which lists the functions it traces by name. A method
counts only when it is read as an attribute ``.name``, so a local variable
or a report key of the same name is no caller. A decorated top-level
function counts as registered by its decorator (the click commands). A
name found only inside its own body, such as a recursive call, does not
count.

Every field of a ``NamedTuple`` of ``metastab`` must likewise be read as an
attribute ``.field`` somewhere in the package or in ``bench/``. The match is
by name alone, so a read of any attribute of that name counts.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "metastab").glob("*.py"))
CALLERS = SOURCES + sorted((ROOT / "bench").glob("*.py"))


# the one file whose string constants name functions
TRACED = "bench/spans.py"


def _definitions(tree):
    """(name, first line, last line, is a method) of the top-level functions
    and classes, other than decorated functions, and of the non-dunder
    methods of those classes."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) or (
                isinstance(node, ast.FunctionDef)
                and not node.decorator_list):
            yield node.name, node.lineno, node.end_lineno, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("__")):
                    yield item.name, item.lineno, item.end_lineno, True


def _references(tree, strings):
    """(name, line, is an attribute read) of every identifier, attribute,
    imported name and, if ``strings``, identifier-like string constant."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno, False
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno, isinstance(node.ctx, ast.Load)
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1], node.lineno, False
        elif (strings and isinstance(node, ast.Constant)
              and isinstance(node.value, str) and node.value.isidentifier()):
            yield node.value, node.lineno, False


def unreferenced(sources, callers):
    """``file:line name`` of each definition in ``sources`` that no file of
    ``callers`` names outside that definition; both map file names to
    source text."""
    refs = {}
    for fname, text in callers.items():
        for name, line, read in _references(ast.parse(text),
                                            fname == TRACED):
            refs.setdefault(name, []).append((fname, line, read))
    missing = []
    for fname, text in sources.items():
        for name, first, last, method in _definitions(ast.parse(text)):
            if not any((read or not method)
                       and (f != fname or not first <= line <= last)
                       for f, line, read in refs.get(name, ())):
                missing.append(f"{fname}:{first} {name}")
    return missing


def _namedtuple_fields(tree):
    """(class, field, line) of each field of the top-level NamedTuples."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and any(
                isinstance(b, ast.Name) and b.id == "NamedTuple"
                for b in node.bases):
            for item in node.body:
                if (isinstance(item, ast.AnnAssign)
                        and isinstance(item.target, ast.Name)):
                    yield node.name, item.target.id, item.lineno


def unread_fields(sources, callers):
    """``file:line Class.field`` of each NamedTuple field in ``sources``
    that no file of ``callers`` reads as an attribute."""
    read = {node.attr for text in callers.values()
            for node in ast.walk(ast.parse(text))
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}
    return [f"{fname}:{line} {cls}.{field}"
            for fname, text in sources.items()
            for cls, field, line in _namedtuple_fields(ast.parse(text))
            if field not in read]


def _texts(paths):
    return {str(p.relative_to(ROOT)): p.read_text() for p in paths}


def test_every_definition_has_a_caller_outside_tests():
    assert unreferenced(_texts(SOURCES), _texts(CALLERS)) == []


def test_every_namedtuple_field_is_read_outside_tests():
    assert unread_fields(_texts(SOURCES), _texts(CALLERS)) == []


def test_an_unread_field_is_reported():
    lib = ("class P(NamedTuple):\n"
           "    x: float\n"
           "    y: float\n"
           "    z: float\n")
    app = "p = P(1, 2, 3)\nprint(p.x)\nq.z = 0\n"
    # a store is no read, nor is the field's own declaration
    assert unread_fields({"lib.py": lib}, {"lib.py": lib, "app.py": app}) == [
        "lib.py:3 P.y", "lib.py:4 P.z"]


def test_a_self_reference_is_no_caller():
    lib = ("class A:\n"
           "    def used(self):\n"
           "        return 1\n"
           "    def dead(self):\n"
           "        return self.dead()\n")
    callers = {"lib.py": lib, "app.py": "print(A().used())\n"}
    assert unreferenced({"lib.py": lib}, callers) == ["lib.py:4 dead"]


def test_a_same_named_local_or_report_key_is_no_caller():
    lib = ("class S:\n"
           "    def minima(self):\n"
           "        return 1\n"
           "def build():\n"
           "    return 2\n"
           "def traced():\n"
           "    return 3\n"
           "@register\n"
           "def command():\n"
           "    return 4\n")
    app = ("def block():\n"
           "    minima = S()\n"
           "    return {'minima': minima, 'build': build, 'traced': 1}\n")
    spans = "TARGETS = (('lib', 'traced'),)\n"
    callers = {"lib.py": lib, "app.py": app}
    # the method is only a local's name and a report key, a string names a
    # function only in the list of traced names, and the decorated command
    # is registered
    assert unreferenced({"lib.py": lib}, callers) == [
        "lib.py:2 minima", "lib.py:6 traced"]
    callers[TRACED] = spans + "x = S().minima\n"
    assert unreferenced({"lib.py": lib}, callers) == []
