"""The benchmark tracer's contract with the package.

``perfbench/tracing.py`` wraps dpdetect functions by name and its hooks
read some of their arguments by parameter name, so a rename in the
package would otherwise surface only in a traced benchmark run. The
tracer is loaded from its file; it needs no installation.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACING_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# Leading parameters of each hooked function, as its hook reads them.
HOOK_PARAMS = {
    "dp_solve": ["y", "x", "k_max"],
    "dp_backtrack": ["table"],
    "read_measurement": ["path"],
    "match_detections": ["truth", "est"],
    "denoise": ["y", "x", "cfg"],
}


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _wrapped_functions(tracing):
    return {
        fn_name: getattr(importlib.import_module(f"dpdetect.{mod_name}"), fn_name, None)
        for mod_name, fn_name, _ in tracing.WRAPPED
    }


def test_every_wrapped_name_resolves(tracing):
    missing = [name for name, fn in _wrapped_functions(tracing).items() if not callable(fn)]
    assert missing == []


def test_hooked_functions_keep_the_parameters_their_hooks_read(tracing):
    functions = _wrapped_functions(tracing)
    assert set(HOOK_PARAMS) <= set(tracing.HOOKS)
    for name, expected in HOOK_PARAMS.items():
        params = list(inspect.signature(functions[name]).parameters)
        assert params[: len(expected)] == expected, name
