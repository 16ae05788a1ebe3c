import ast
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import bisac

SOURCES = sorted(Path(bisac.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_source_compiles_without_warnings(path):
    # compile the text itself: importing could reuse cached bytecode and
    # so never show a warning raised at compile time
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        compile(path.read_text(), str(path), "exec")


def test_import_raises_no_warning():
    # warnings raised while the modules run, which compiling alone misses
    src = str(Path(bisac.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", "import bisac, bisac.cli"],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr


def test_estimator_imports_nothing_from_the_simulator():
    # the receiver takes plain complex grids, simulated or not
    tree = ast.parse((Path(bisac.__file__).parent / "estimator.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert (node.module or "").split(".")[-1] != "sim"
            assert "sim" not in {a.name for a in node.names}
        elif isinstance(node, ast.Import):
            assert not any(a.name.split(".")[-1] == "sim" for a in node.names)


def imported_names(tree) -> set:
    """Names bound by the module's imports, ``from __future__`` aside."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_every_import_is_used(path):
    # __init__ imports to re-export, so it is left out
    tree = ast.parse(path.read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert imported_names(tree) - used == set()


def test_harness_runs_no_full_grid_simulation():
    # sweeps and simulate_trial run trial blocks on the pilot subgrid; the
    # full-grid functions stay the reference that the block is tested against
    tree = ast.parse((Path(bisac.__file__).parent / "harness.py").read_text())
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    names |= imported_names(tree)
    assert names & {"generate_frame", "apply_channel", "sample_scenario"} == set()
