"""Every name that perfbench traces still exists in shapelab.

``perfbench/spans.py`` wraps the callables listed in ``TARGETS`` by name,
after import.  A rename or deletion there would silently drop a layer from
the traced metrics, so this test resolves each entry without installing the
tracer.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module.TARGETS


TARGETS = _targets()


def test_targets_are_listed():
    assert len(TARGETS) >= 50


@pytest.mark.parametrize("module,qualname,bucket", TARGETS,
                         ids=[f"{m}.{q}" for m, q, _ in TARGETS])
def test_target_resolves_to_a_shapelab_attribute(module, qualname, bucket):
    obj = importlib.import_module(f"shapelab.{module}")
    for part in qualname.split("."):
        obj = getattr(obj, part)
    assert callable(obj)
