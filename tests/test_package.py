"""Package-wide contracts: the top-level API, the immutable containers
and the runtime dependencies.

The top level publishes exactly the names each module lists in its
``__all__`` (``cli`` excepted), so a public name is declared in one
place.  Every container freezes the arrays it holds without freezing
the arrays its caller passed in.  Importing the package, CLI included,
loads numpy and the standard library only.
"""

import importlib
import os
import pkgutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import eegfx
from eegfx.evaluation import KdeModel
from eegfx.feature_table import FeatureTable
from eegfx.freq_features import Psd
from eegfx.signals import Epoch, Record
from eegfx.wavelets import WaveletDecomposition

MODULES = (
    "annotations", "bench", "cfs", "config", "edf", "evaluation", "feature_table",
    "freq_features", "pipeline", "signals", "synth", "time_features", "wavelets",
)


def test_every_module_but_cli_is_republished():
    found = {info.name for info in pkgutil.iter_modules(eegfx.__path__)}
    assert found - {"cli"} == set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_module_all_is_published_at_top_level(module):
    mod = importlib.import_module(f"eegfx.{module}")
    for name in mod.__all__:
        assert name in vars(mod), f"{module}.__all__ names undefined {name!r}"
        assert getattr(eegfx, name, None) is getattr(mod, name), name


def test_top_level_names_nothing_of_its_own():
    published = {name for m in MODULES for name in importlib.import_module(f"eegfx.{m}").__all__}
    own = {
        name
        for name, value in vars(eegfx).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert own <= published


def test_import_loads_no_scipy():
    code = (
        "import sys, eegfx, eegfx.cli; "
        "print(sorted({m.split('.')[0] for m in sys.modules if m.startswith('scipy')}))"
    )
    path = [str(Path(eegfx.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


_CONTAINERS = {
    "Record": ((2, 10), lambda a: Record(("a", "b"), a, 1.0).data),
    "Epoch": ((10,), lambda a: Epoch(a, 1.0).samples),
    "FeatureTable": (
        (3, 1),
        lambda a: FeatureTable(("r",) * 3, np.arange(3.0), [0, 1, 0], ("F",), a).values,
    ),
    "Psd": ((5,), lambda a: Psd(np.arange(5.0), a).power),
    "KdeModel": (
        (4,),
        lambda a: KdeModel((a, np.arange(3.0)), (1.0, 1.0), (0.5, 0.5)).class_samples[0],
    ),
    "WaveletDecomposition": (
        (8,),
        lambda a: WaveletDecomposition((a,), np.ones(8), "d4", 16).details[0],
    ),
}


@pytest.mark.parametrize("container", sorted(_CONTAINERS))
def test_container_freezes_a_view_not_the_callers_array(container):
    shape, held_array_of = _CONTAINERS[container]
    given = np.zeros(shape)
    held = held_array_of(given)
    assert not held.flags.writeable
    assert np.shares_memory(held, given)  # no copy
    assert given.flags.writeable
    given[...] = 1.0
