"""Only ``config`` and ``harness`` raise ConfigError.

The config states each rule that needs only the YAML, and ``harness`` each
rule that needs an input file (trace, cluster model, checkpoint). Every
other module raises its own ValueError, which the boundary turns into a
ConfigError where the input is at fault, so each rule is checked once.
"""

import ast
from pathlib import Path

import sfcsim

PACKAGE = Path(sfcsim.__file__).parent
BOUNDARY = {"config.py", "harness.py"}


def config_error_raises(path: Path) -> list[str]:
    """``raise ConfigError(...)`` (or a bare ``raise ConfigError``) lines of one file."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if not isinstance(node, ast.Raise) or node.exc is None:
            continue
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        name = exc.attr if isinstance(exc, ast.Attribute) else getattr(exc, "id", None)
        if name == "ConfigError":
            found.append(f"{path.name}:{node.lineno} raises ConfigError")
    return found


def test_only_config_and_harness_raise_config_error():
    modules = sorted(PACKAGE.glob("*.py"))
    assert BOUNDARY <= {path.name for path in modules}
    assert config_error_raises(PACKAGE / "harness.py")  # the walk sees a raise
    found = [line for path in modules if path.name not in BOUNDARY
             for line in config_error_raises(path)]
    assert not found, "\n".join(found)
