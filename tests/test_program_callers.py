"""Every public function and method in sfcsim has a caller in the program.

The program is ``src/``, ``bench/`` and ``scripts/``. A public function, or
a public method of a public class, that nothing there names is test code and
belongs in ``tests/`` (for example ``tests/helpers.py``). A reference is an
AST ``Name`` or ``Attribute`` node outside the definition itself, so a name
in a string or a docstring does not count, and neither does a recursive
call. Two kinds of name are allowed without a caller: the ``autodiff``
module, the gradient reference that the learner's closed-form gradient is
checked against, and the functions that the benchmark's tracer patches by
name (``TRACED`` in ``bench/tracer.py``).
"""

import ast
from pathlib import Path

from test_traced_hooks import load_traced

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sfcsim"
ALLOWED_MODULES = {"autodiff"}


def public_definitions(path: Path) -> dict[str, str]:
    """``{qualified name: bare name}`` of the module's public top-level
    functions and the public methods of its public top-level classes."""
    module = f"sfcsim.{path.stem}"
    found = {}
    for node in ast.parse(path.read_text(encoding="utf-8"), str(path)).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            methods, prefix = [node], module
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            methods, prefix = node.body, f"{module}.{node.name}"
        else:
            continue
        for item in methods:
            if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not item.name.startswith("_")):
                found[f"{prefix}.{item.name}"] = item.name
    return found


def referenced_names(path: Path) -> set[str]:
    """Names that a ``Name`` or ``Attribute`` node uses, except inside a
    definition of the same name."""
    names = set()

    def visit(node: ast.AST, inside: frozenset) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inside = inside | {node.name}
        name = (node.id if isinstance(node, ast.Name)
                else node.attr if isinstance(node, ast.Attribute) else None)
        if name is not None and name not in inside:
            names.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(ast.parse(path.read_text(encoding="utf-8"), str(path)), frozenset())
    return names


def test_every_public_function_has_a_caller_in_the_program():
    modules = [p for p in sorted(PACKAGE.glob("*.py")) if p.stem not in ALLOWED_MODULES]
    assert len(modules) > 10
    definitions = {}
    for path in modules:
        definitions.update(public_definitions(path))
    assert len(definitions) > 50
    traced = {f"{module}.{path}" for module, path, _ in load_traced()}
    used = set()
    for folder in ("src", "bench", "scripts"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            used |= referenced_names(path)
    uncalled = sorted(qualified for qualified, name in definitions.items()
                      if name not in used and qualified not in traced)
    assert not uncalled, "no caller outside tests/:\n" + "\n".join(uncalled)
