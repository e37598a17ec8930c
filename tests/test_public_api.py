"""gsaformer.__all__ is kept by hand, and so is the rule that src/ holds
only code something runs; these keep both honest."""

import ast
import math
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
    """(name, line) of every identifier and attribute that tree reads and,
    when strings, of every part of a dotted-name string constant (the
    perfbench tracer looks functions up by such strings).  A store is no
    reference: a field declared or assigned under a name calls nothing."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
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


def _defaulted(function, bound):
    """(name, position) of every parameter of function with a default, the
    position counting the call's positional arguments (bound of them, self
    or cls, are given by the binding) and None for a keyword-only one."""
    args = function.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    yield from ((a.arg, i - bound) for i, a in enumerate(positional) if i >= first)
    yield from ((a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                if d is not None)


def _defaulted_parameters(tree):
    """(callee name, parameter, position) of every defaulted parameter of a
    module-level function or a method; __init__ is called as its class,
    and __call__ and the other dunders are called through syntax."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield from ((node.name, *p) for p in _defaulted(node, 0))
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if not isinstance(item, ast.FunctionDef):
                    continue
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in item.decorator_list)
                if item.name == "__init__":
                    yield from ((node.name, *p) for p in _defaulted(item, 1))
                elif not item.name.startswith("__"):
                    yield from ((item.name, *p) for p in _defaulted(item, 0 if static else 1))


def _calls(tree):
    """(callee name, positional argument count, keyword names) of every
    call in tree; cls(...) inside a class is a call of that class.  A
    *args passes every later position and a **kwargs every keyword."""
    scopes = [(node.name if isinstance(node, ast.ClassDef) else None, node) for node in tree.body]
    for owner, scope in scopes:
        for node in ast.walk(scope):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "cls" and owner is not None:
                name = owner
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            keywords = {k.arg for k in node.keywords}
            yield name, math.inf if starred else len(node.args), keywords


def test_every_defaulted_parameter_is_set_by_a_caller():
    """A default that no call in src/, perfbench/*.py or the acceptance
    gates overrides is a constant with a parameter's name: each defaulted
    parameter of a src/ function must be passed, by keyword or by
    position, by some call of that name."""
    calls = [call for path in SRC + PERFBENCH + [ROOT / "tests" / "test_acceptance.py"]
             for call in _calls(ast.parse(path.read_text(encoding="utf-8")))]
    unset = []
    for path in SRC:
        for callee, parameter, position in _defaulted_parameters(
                ast.parse(path.read_text(encoding="utf-8"))):
            if not any(name == callee and (
                    parameter in keywords or None in keywords
                    or (position is not None and position < positional))
                       for name, positional, keywords in calls):
                unset.append(f"{path.stem}.{callee}({parameter})")
    assert unset == []


def _tile_uses(tree):
    """(enclosing module-level definition or None, name) of every call of
    row_tiles and every read or import of TILE_ROWS in tree."""
    for top in tree.body:
        scope = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                func = node.func
                if getattr(func, "id", getattr(func, "attr", None)) == "row_tiles":
                    yield scope, "row_tiles"
            elif isinstance(node, (ast.Name, ast.Attribute)):
                if getattr(node, "id", getattr(node, "attr", None)) == "TILE_ROWS":
                    yield scope, "TILE_ROWS"
            elif isinstance(node, ast.ImportFrom):
                yield from ((scope, a.name) for a in node.names if a.name == "TILE_ROWS")


def test_only_tensor_turns_tile_rows_into_tiles():
    """Every op's row tiles come from tensor.tiles or tensor.half_tiles.
    The one other reader is adam_step, whose tiles are an element budget
    of TILE_ROWS times 128, read when it runs."""
    uses = [(path.stem, *use) for path in SRC if path.stem != "tensor"
            for use in _tile_uses(ast.parse(path.read_text(encoding="utf-8")))]
    assert ("training", "adam_step", "TILE_ROWS") in uses
    assert [use for use in uses if use[:2] != ("training", "adam_step")] == []


def test_gsa_forward_and_backward_walk_one_cut():
    """gsa_forward and its rule project and attend in the same half tiles:
    gsa.py reads tensor.half_tiles and never tensor.tiles, and neither
    _tiles nor _project takes a parameter that would pick another cut."""
    tree = ast.parse((ROOT / "src" / "gsaformer" / "gsa.py").read_text(encoding="utf-8"))
    names = {name for name, _ in _references(tree, strings=False)}
    imported = {a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for a in node.names}
    assert "half_tiles" in names and "tiles" not in names | imported
    parameters = {node.name: [a.arg for a in node.args.args + node.args.kwonlyargs]
                  for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert parameters["_tiles"] == ["l", "l_g"]
    assert "half" not in parameters["_project"]
