"""The benchmark's tracer against the package it wraps.

``perfbench/tracing.py`` wraps bac functions by module and name, so a renamed,
moved or deleted name breaks every traced benchmark run.  Installing it here
makes that a tier-1 failure too.
"""

import importlib
import importlib.util
from pathlib import Path

import bac.denoiser
import bac.engine

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_perfbench_tracer_resolves_every_traced_name():
    tracing = _load_tracing()
    for module_name in sorted({module for module, _, _ in tracing.TARGETS}):
        importlib.import_module(module_name)
    block_residual, run_cached = bac.denoiser.block_residual, bac.engine.run_cached
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert bac.denoiser.block_residual is not block_residual
        assert bac.engine.run_cached is not run_cached
    finally:
        tracer.uninstall()
    assert bac.denoiser.block_residual is block_residual
    assert bac.engine.run_cached is run_cached
