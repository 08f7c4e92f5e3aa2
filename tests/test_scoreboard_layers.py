"""The scoreboard's patch table still resolves against ``src/``.

``benchmarks/scoreboard/tracing.py`` gets its per-layer numbers by wrapping
the functions ``LAYERS`` names, and ``Tracer._patch`` looks each up by
name: a rename in ``src/`` otherwise surfaces only in a traced benchmark
run, which tier-1 never executes.  This loads the table by path (read
only) and resolves every row under the rule ``Tracer.install`` applies.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "benchmarks" / "scoreboard" / "tracing.py"


def _layers():
    spec = importlib.util.spec_from_file_location("_scoreboard_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


@pytest.mark.parametrize("span, module_name, owner_name, attribute", _layers())
def test_layer_row_resolves(span, module_name, owner_name, attribute):
    module = importlib.import_module(module_name)
    if owner_name is None:
        assert callable(getattr(module, attribute, None)), (
            f"{span}: no module-level function {module_name}.{attribute}"
        )
    elif owner_name == "*":
        owners = [
            candidate
            for candidate in vars(module).values()
            if isinstance(candidate, type)
            and candidate.__module__ == module_name
            and attribute in candidate.__dict__
            and not getattr(candidate.__dict__[attribute], "__isabstractmethod__", False)
        ]
        assert owners, f"{span}: no class in {module_name} defines {attribute}"
    else:
        owner = getattr(module, owner_name, None)
        assert isinstance(owner, type), f"{span}: no class {module_name}.{owner_name}"
        # ``_patch`` reads the class's own ``__dict__``: an inherited method
        # raises there, so it does not count here either.
        assert attribute in owner.__dict__, (
            f"{span}: {owner_name} does not itself define {attribute}"
        )
