"""The names ``perfbench/tracing.py`` wraps exist in the package.

The tracer skips a site whose name is gone, so a renamed or deleted
function would only make its layer metrics read 0. This test turns that
into a failure."""
import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)


@pytest.mark.parametrize(
    "module,attr", [(mod, attr) for mod, attr, _ in tracing.FUNCTION_SITES]
)
def test_every_function_site_exists(module, attr):
    # the tracer looks a name up in the module's own namespace
    assert callable(vars(importlib.import_module(f"rulechain.{module}")).get(attr))


@pytest.mark.parametrize("module,cls", [(mod, cls) for mod, cls, _ in tracing.METHOD_SITES])
def test_every_select_site_exists(module, cls):
    owner = getattr(importlib.import_module(f"rulechain.{module}"), cls)
    assert callable(vars(owner).get("select"))
