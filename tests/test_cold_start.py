"""A cold start loads only what its command runs.

``import mase`` loads no submodule, the CLI's argument handling loads no
numpy, only ``sweep`` loads the process pool, no command loads numpy.random
(the test bumps are drawn in weakform), and only a ``tw_profile`` scenario
loads the wave constructors.  Each case runs a fresh
interpreter under ``-X importtime`` and reads the modules it imported.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import mase
from mase.cli import main

ENV = dict(os.environ, PYTHONPATH=str(Path(mase.__file__).parents[1]))
NUMERICAL = {f"mase.{name}" for name in ("evolution", "grid", "operators", "scenarios", "storage",
                                          "symmetry", "traveling_wave", "weakform")}


def _imports(*args: str, cwd=None) -> tuple[int, set[str]]:
    """Exit code of ``python -X importtime ARGS`` and the modules it imported."""
    proc = subprocess.run([sys.executable, "-X", "importtime", *args], env=ENV, cwd=cwd,
                          capture_output=True, text=True, timeout=120)
    names = {line.rpartition("|")[2].strip() for line in proc.stderr.splitlines()
             if line.startswith("import time:")}
    return proc.returncode, names


def _numpy(names: set[str]) -> set[str]:
    return {name for name in names if name.split(".")[0] == "numpy"}


def _within(names: set[str], *packages: str) -> set[str]:
    """The names that are one of ``packages`` or a module inside one."""
    return {name for name in names if name.startswith(tuple(f"{p}." for p in packages))
            or name in packages}


@pytest.mark.parametrize("argv, code", [
    (["--version"], 0),
    (["--help"], 0),
    (["tw", "--help"], 0),
    (["tw", "--wave", "periodic"], 2),   # --speed is required
    (["simulate"], 2),                   # --config is required
    (["frobnicate"], 2),
])
def test_argument_handling_imports_no_numpy_and_no_numerical_module(argv, code):
    rc, names = _imports("-m", "mase.cli", *argv)
    assert rc == code
    assert "mase.errors" in names
    assert not _numpy(names)
    assert not names & NUMERICAL


def test_import_mase_imports_no_submodule_until_a_name_is_used():
    rc, names = _imports("-c", "import mase; assert mase.__version__")
    assert rc == 0 and "mase" in names
    assert not _numpy(names)
    assert not {name for name in names if name.startswith("mase.")}
    # import_module, which resolves the name, is not listed by -X importtime
    loads = "import mase, sys; mase.Grid; print(*sorted(m for m in sys.modules if m[:4] == 'mase'))"
    proc = subprocess.run([sys.executable, "-c", loads], env=ENV, capture_output=True, text=True,
                          timeout=120)
    assert proc.stdout.split() == ["mase", "mase.errors", "mase.grid"]


def test_symmetry_command_imports_no_process_pool_and_no_module_it_does_not_run(tmp_path):
    scenario = tmp_path / "scenario.json"
    scenario.write_text('{"grid": {"n_points": 128, "length": 40.0}, '
                        '"initial": {"kind": "gaussian", "amplitude": 0.05, "width": 2.0}, '
                        '"solver": {"t_end": 0.5, "snapshot_interval": 0.125}}')
    assert main(["simulate", "--config", str(scenario), "--out", str(tmp_path / "run")]) == 0
    rc, names = _imports("-m", "mase.cli", "symmetry", "--run", "run", cwd=tmp_path)
    assert rc == 0 and {"mase.storage", "mase.symmetry"} <= names
    assert not {name for name in names if name.split(".")[0] in ("concurrent", "multiprocessing")}
    assert not names & {"mase.weakform", "mase.traveling_wave", "mase.scenarios"}


def _scenario(path: Path, initial: str) -> Path:
    path.write_text('{"grid": {"n_points": 128, "length": 40.0}, "initial": ' + initial + ', '
                    '"solver": {"t_end": 0.5, "snapshot_interval": 0.125}, '
                    '"analysis": {"symmetry": true, "weakform": true, "breaking": true}}')
    return path


def test_a_gaussian_simulate_and_weakform_run_load_no_numpy_random_or_wave_constructor(tmp_path):
    scenario = _scenario(tmp_path / "gaussian.json",
                         '{"kind": "gaussian", "amplitude": 0.05, "width": 2.0}')
    rc, names = _imports("-m", "mase.cli", "simulate", "--config", str(scenario),
                         "--out", "run", cwd=tmp_path)
    assert rc == 0 and (tmp_path / "run" / "residuals.json").is_file()
    assert {"mase.scenarios", "mase.weakform"} <= names
    assert not _within(names, "numpy.random", "numpy.polynomial", "mase.traveling_wave")

    rc, names = _imports("-m", "mase.cli", "weakform", "--run", "run", cwd=tmp_path)
    assert rc == 0 and "mase.weakform" in names
    assert not _within(names, "numpy.random")


def test_tw_loads_no_numpy_random(tmp_path):
    rc, names = _imports("-m", "mase.cli", "tw", "--speed", "1.2", "--out", "tw", cwd=tmp_path)
    assert rc == 0 and {"mase.traveling_wave", "mase.weakform"} <= names
    assert not _within(names, "numpy.random")


def test_a_tw_profile_simulate_loads_the_wave_constructors(tmp_path):
    scenario = _scenario(tmp_path / "tw.json", '{"kind": "tw_profile", "speed": 1.2}')
    rc, names = _imports("-m", "mase.cli", "simulate", "--config", str(scenario),
                         "--out", "run", cwd=tmp_path)
    assert rc == 0 and (tmp_path / "run" / "manifest.json").is_file()
    assert "mase.traveling_wave" in names
    assert not _within(names, "numpy.random")
