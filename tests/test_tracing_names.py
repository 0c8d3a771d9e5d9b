"""Every name the benchmark's tracer rebinds exists in the library.

bench/tracing.py wraps the functions listed in its TRACED table by module
and attribute name (a class attribute for "Class.attr").  A rename or
removal in the library would otherwise surface only when a traced benchmark
run installs the tracer.  The table is read here; the tracer is never
installed.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _tracing_module():
    spec = importlib.util.spec_from_file_location("entlab_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


TRACER = _tracing_module()


@pytest.mark.parametrize("mod_name, qual", [(m, q) for m, q, _ in TRACER.TRACED])
def test_every_traced_name_exists(mod_name, qual):
    module = TRACER.MODULES[mod_name]
    if "." in qual:
        cls_name, attr = qual.split(".")
        assert attr in getattr(module, cls_name).__dict__, f"{mod_name}.{qual} is gone"
    else:
        assert callable(getattr(module, qual, None)), f"{mod_name}.{qual} is gone"
