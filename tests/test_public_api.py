"""gsaformer.__all__ is kept by hand, and so is the rule that src/ holds
only code something runs; these keep both honest."""

import ast
import re
from pathlib import Path

import gsaformer


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from gsaformer import *", namespace)
    assert [name for name in gsaformer.__all__ if name not in namespace] == []


def test_public_names_are_listed_once():
    assert len(gsaformer.__all__) == len(set(gsaformer.__all__))


ROOT = Path(__file__).resolve().parents[1]
SRC = sorted((ROOT / "src" / "gsaformer").glob("*.py"))
PERFBENCH = sorted((ROOT / "perfbench").glob("*.py"))


def _definitions(tree):
    """(name, first line, last line) of every module-level function and
    class and every non-dunder method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (
                        item.name.startswith("__") and item.name.endswith("__")):
                    yield f"{node.name}.{item.name}", item.lineno, item.end_lineno


def _references(tree, strings):
    """(name, line) of every identifier and attribute in tree and, when
    strings, of every part of a dotted-name string constant (the perfbench
    tracer looks functions up by such strings)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif (strings and isinstance(node, ast.Constant) and isinstance(node.value, str)
              and re.fullmatch(r"[\w.]+", node.value)):
            for part in node.value.split("."):
                yield part, node.lineno


def test_every_src_definition_has_a_caller():
    """A caller is a reference outside the definition's own body, in src/,
    perfbench/*.py or the acceptance gates; unit tests do not count."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in SRC}
    references = [(path, name, line) for path, tree in trees.items()
                  for name, line in _references(tree, strings=False)]
    for path in PERFBENCH + [ROOT / "tests" / "test_acceptance.py"]:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        references += [(path, name, line) for name, line
                       in _references(tree, strings=path in PERFBENCH)]
    uncalled = []
    for path, tree in trees.items():
        for qualname, first, last in _definitions(tree):
            name = qualname.rsplit(".", 1)[-1]
            if not any(ref == name and not (ref_path == path and first <= line <= last)
                       for ref_path, ref, line in references):
                uncalled.append(f"{path.stem}.{qualname}")
    assert uncalled == []
