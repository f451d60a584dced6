"""Every function the benchmark's tracer patches still exists where it looks.

``bench/tracer.py`` names the functions it wraps in ``TRACED``; a source
change that renames or moves one would otherwise fail only when the
benchmark runs. The tracer is loaded from its file, so the benchmark needs
no edit and no import path of its own.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def load_traced() -> tuple:
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


def test_every_traced_name_resolves():
    traced = load_traced()
    assert len(traced) > 20
    missing = []
    for module_name, path, span in traced:
        # walk the path as Tracer.installed() does: it patches owner.__dict__[attr]
        owner = importlib.import_module(module_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        if owner is None or attr not in vars(owner):
            missing.append(f"{module_name}.{path} ({span})")
    assert not missing, "\n".join(missing)
