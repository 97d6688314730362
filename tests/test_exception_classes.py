"""The exception layer of src/: a class of its own only where src/ catches it by that class."""

import ast
import builtins
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "mobiusdyn"


def _names(node) -> list[str]:
    """The class names an expression names: a Name, an Attribute's last part, or a tuple of them."""
    if isinstance(node, ast.Tuple):
        return [name for elt in node.elts for name in _names(elt)]
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    return []


def _handlers(tree) -> list[list[str]]:
    """The names in each typed except clause under tree, in walk order."""
    return [_names(node.type) for node in ast.walk(tree) if isinstance(node, ast.ExceptHandler) and node.type]


def _src_trees() -> dict[str, ast.Module]:
    return {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}


def test_every_exception_class_in_src_is_named_by_an_except_clause_in_src():
    trees = _src_trees().values()
    bases = {
        node.name: [name for base in node.bases for name in _names(base)]
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
    }

    def is_exception(name, seen=frozenset()):
        builtin = getattr(builtins, name, None)
        if isinstance(builtin, type) and issubclass(builtin, BaseException):
            return True
        return name in bases and name not in seen and any(is_exception(b, seen | {name}) for b in bases[name])

    classes = {name for name in bases if is_exception(name)}
    caught = {name for tree in trees for handler in _handlers(tree) for name in handler}
    assert sorted(classes - caught) == []
    assert classes == {"ConfigError", "ResourceGuard", "InvalidMatrix", "RepeatedRoot", "DegenerateSpectral"}


def test_main_maps_three_exception_kinds_to_the_three_failure_exit_codes():
    # config error -> 2, resource guard (or an allocation that fails anyway) -> 3, mathematical mismatch -> 1
    tree = _src_trees()["cli_runner.py"]
    (main,) = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "main"]
    assert _handlers(main) == [["ConfigError"], ["ResourceGuard", "MemoryError"], ["AssertionError"]]
