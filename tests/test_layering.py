"""No sfcsim module imports another module's underscore-prefixed names.

A leading underscore marks a name as its module's own; a module that needs
one from elsewhere should get a public name for it instead.
"""

import ast
from pathlib import Path

import sfcsim

PACKAGE = Path(sfcsim.__file__).parent


def private_imports(path: Path) -> list[str]:
    """``from <sfcsim module> import _name`` lines of one source file."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        inside = node.level > 0 or (node.module or "").split(".")[0] == "sfcsim"
        if inside:
            found += [f"{path.name}:{node.lineno} imports {alias.name} from "
                      f"{'.' * node.level}{node.module or ''}"
                      for alias in node.names if alias.name.startswith("_")]
    return found


def test_no_module_imports_a_private_name():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 10
    found = [line for path in modules for line in private_imports(path)]
    assert not found, "\n".join(found)
