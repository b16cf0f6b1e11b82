"""Every name the benchmark's traced run wraps still exists in arquiver.

``perfbench/tracing.py`` looks each traced function, method and class up by
name when it installs its wrappers, so deleting or renaming one of them
breaks ``perfbench/run.py --trace 1``.  This reads the lists and resolves
each entry the way ``Tracer.install`` does; it changes nothing there.
"""

import importlib
import importlib.util
import pathlib

import pytest

TRACING = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _tracing()


@pytest.mark.parametrize(
    "layer,path",
    sorted({(layer, path) for layer, path, _a, _r in tracing.TRACED + tracing.KNIT_ONLY}),
)
def test_traced_function_resolves(layer, path):
    mod = importlib.import_module(f"arquiver.{layer}")
    if "." in path:
        cls_name, attr = path.split(".")
        assert callable(getattr(mod, cls_name).__dict__[attr])
    else:
        assert callable(getattr(mod, path))


@pytest.mark.parametrize("layer,cls_name", [(l, c) for l, c, _lookup in tracing.COUNTED_NEW])
def test_counted_constructor_resolves(layer, cls_name):
    assert isinstance(getattr(importlib.import_module(f"arquiver.{layer}"), cls_name), type)


def test_install_and_uninstall_restore_the_originals():
    import arquiver.cli  # noqa: F401  (loads every layer the tracer patches)
    from arquiver import knitting

    original = knitting.knit
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert knitting.knit is not original
    finally:
        tracer.uninstall()
    assert knitting.knit is original
