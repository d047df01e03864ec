"""No library code that only tests call.

Every top-level function and class of ``metastab`` and every method other
than a dunder must be named somewhere in the package or in ``bench/``
outside its own definition: as an identifier, an attribute, an imported
name, or a string equal to the name (``bench/spans.py`` names the functions
it traces that way). A name found only inside its own body, such as a
recursive call, does not count.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "metastab").glob("*.py"))
CALLERS = SOURCES + sorted((ROOT / "bench").glob("*.py"))


def _definitions(tree):
    """(name, first line, last line) of the top-level functions and classes
    and of the non-dunder methods of those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("__")):
                    yield item.name, item.lineno, item.end_lineno


def _references(tree):
    """(name, line) of every identifier, attribute, imported name and
    identifier-like string constant."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1], node.lineno
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            yield node.value, node.lineno


def unreferenced(sources, callers):
    """``file:line name`` of each definition in ``sources`` that no file of
    ``callers`` names outside that definition; both map file names to
    source text."""
    refs = {}
    for fname, text in callers.items():
        for name, line in _references(ast.parse(text)):
            refs.setdefault(name, []).append((fname, line))
    missing = []
    for fname, text in sources.items():
        for name, first, last in _definitions(ast.parse(text)):
            if not any(f != fname or not first <= line <= last
                       for f, line in refs.get(name, ())):
                missing.append(f"{fname}:{first} {name}")
    return missing


def _texts(paths):
    return {str(p.relative_to(ROOT)): p.read_text() for p in paths}


def test_every_definition_has_a_caller_outside_tests():
    assert unreferenced(_texts(SOURCES), _texts(CALLERS)) == []


def test_a_self_reference_is_no_caller():
    lib = ("class A:\n"
           "    def used(self):\n"
           "        return 1\n"
           "    def dead(self):\n"
           "        return self.dead()\n")
    callers = {"lib.py": lib, "app.py": "print(A().used())\n"}
    assert unreferenced({"lib.py": lib}, callers) == ["lib.py:4 dead"]
