"""Every name the benchmark tracer binds exists in the package.

``perfbench/tracer.py`` rebinds layer functions by name in each module that
holds them, so a dropped or renamed name fails every traced benchmark run.
This loads the tracer by path, installs and uninstalls it, and edits nothing
under ``perfbench/``.
"""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_tracer_binds_names_that_exist_and_restores_them():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    tracer = module.Tracer()
    try:
        # reads quadrature.truncation_point and estimation.brentq, stubs that no
        # package code calls, and patches the second
        tracer.install()
        patched = list(tracer._patched)
        bound = [getattr(owner, name) for owner, name, _ in patched]
    finally:
        tracer.uninstall()
    names = {(owner.__name__, name) for owner, name, _ in patched}
    assert ("extropy.estimation", "brentq") in names and ("extropy.cli", "main") in names
    assert len(names) == len(patched)
    assert all(now is not original for now, (_, _, original) in zip(bound, patched))
    assert all(getattr(owner, name) is original for owner, name, original in patched)
