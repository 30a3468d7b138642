"""The benchmark's tracer names only functions the package defines.

``bench/tracing.py`` looks each name in its ``LAYERS`` table up on the
module at trace time, so a function renamed or deleted in the package
would break ``bench/run.py --trace 1`` without failing any other test.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_a_function_of_its_module():
    layers = load_tracing().LAYERS
    assert layers
    for module_name, names in layers.items():
        module = importlib.import_module(f"historyvalue.{module_name}")
        for name in names:
            fn = getattr(module, name, None)
            assert inspect.isfunction(fn), f"historyvalue.{module_name}.{name}"
