"""perfbench's per-layer metrics come from wrappers it installs around
named calls in the program (``HOOKS`` in ``perfbench/spans.py``).  A
traced run that cannot find one only prints that the layer reads 0 and
carries on, so a rename in the program would silently zero a metric;
this pins every hooked name."""

import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_spans()


@pytest.mark.parametrize(
    "path,attr,name", spans.HOOKS,
    ids=[f"{path}.{attr}" for path, attr, _ in spans.HOOKS],
)
def test_hook_resolves_to_a_callable(path, attr, name):
    owner = spans._resolve(path)
    assert callable(getattr(owner, attr, None)), (
        f"{path}.{attr} is gone: perfbench's {name} would read 0"
    )
