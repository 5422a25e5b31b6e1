"""Every function the benchmark's tracer wraps must be where it looks.

``perfbench/tracer.py`` wraps module functions by name and methods in their
class's own ``__dict__``; a method moved to a base class would only break the
traced benchmark run, so this is checked here."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _targets():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("target", _targets(), ids=lambda t: t[0])
def test_trace_target_resolves(target):
    _, module_name, attr, _, _ = target
    module = importlib.import_module(module_name)
    if "." in attr:
        cls_name, meth = attr.split(".")
        assert meth in vars(getattr(module, cls_name)), \
            f"{attr} is not defined on {cls_name} itself"
    else:
        assert callable(getattr(module, attr))
