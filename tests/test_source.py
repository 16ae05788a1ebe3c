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


def run_python(code: str) -> subprocess.CompletedProcess:
    """``code`` run by a fresh interpreter under ``-W error`` on this package."""
    src = str(Path(bisac.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-W", "error", "-c", code], env=env,
                          capture_output=True, text=True)


def test_import_raises_no_warning():
    # warnings raised while the modules run, which compiling alone misses
    proc = run_python("import bisac, bisac.cli")
    assert proc.returncode == 0, proc.stderr


def test_import_leaves_numpy_random_unimported():
    # numpy.random takes some 15 ms to import; the trial draws and the ECRB
    # import it on first use, so importing the package stays cheap
    proc = run_python("import bisac, sys; assert 'numpy.random' not in sys.modules")
    assert proc.returncode == 0, proc.stderr


def test_import_leaves_multiprocessing_unimported():
    # multiprocessing (and socket with it) takes some 10 ms to import; only a
    # sweep that starts worker processes needs it, and only a worker that
    # fails needs traceback
    proc = run_python("import bisac, sys; "
                      "assert not {'multiprocessing', 'socket', 'traceback'} & set(sys.modules)")
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


def harness_names() -> set:
    """Every name, attribute and imported name in harness.py."""
    tree = ast.parse((Path(bisac.__file__).parent / "harness.py").read_text())
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    return names | imported_names(tree)


def test_harness_runs_no_full_grid_simulation():
    # sweeps and simulate_trial run trial blocks on the pilot subgrid; the
    # full-grid functions stay the reference that the block is tested against
    assert harness_names() & {"generate_frame", "apply_channel", "sample_scenario"} == set()


def test_harness_leaves_the_fft_sizes_to_the_estimator():
    # the FFT sizes are units of the estimator's labels and surface: the
    # harness neither reads them nor sizes blocks from the search's internals
    assert harness_names() & {"_start_cells", "check_covers", "fft_n", "fft_m"} == set()


def test_one_dispatcher_and_one_ecrb_routine():
    # the dispatcher runs tasks, whatever they are, and the sweep and the table
    # take their ECRB column through bounds._ecrb_means alone
    tree = ast.parse((Path(bisac.__file__).parent / "harness.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name in ("_dispatch", "_take", "_work"):
            names = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            assert names & {"_block_errors", "_bound_columns"} == set(), node.name
    assert harness_names() & {"_ecrb_geometry", "_ecrb_mean"} == set()


def test_one_readout_from_the_maximum_to_the_estimates():
    # estimate, simulate_trial and the sweep blocks read the estimates off the
    # maximum through one function, the only one that catches GeometryError;
    # a trial block only draws, and its callers choose their readout
    tree = ast.parse((Path(bisac.__file__).parent / "estimator.py").read_text())
    catching = {func.name for func in ast.walk(tree) if isinstance(func, ast.FunctionDef)
                for node in ast.walk(func) if isinstance(node, ast.ExceptHandler)
                and "GeometryError" in {n.id for n in ast.walk(node.type or ast.Pass())
                                        if isinstance(n, ast.Name)}}
    assert len(catching) == 1, catching
    tree = ast.parse((Path(bisac.__file__).parent / "harness.py").read_text())
    (block,) = [node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "_trial_block"]
    params = block.args
    assert [a.arg for a in params.posonlyargs + params.args + params.kwonlyargs] == [
        "config", "runs"]
    assert params.vararg is None and params.kwarg is None


def test_every_dataclass_is_frozen():
    # a value type changes only through its constructor or dataclasses.replace,
    # both of which run its checks
    mutable = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            for deco in getattr(node, "decorator_list", ()):
                call = deco if isinstance(deco, ast.Call) else ast.Call(deco, [], [])
                if getattr(call.func, "id", None) == "dataclass" and not any(
                        k.arg == "frozen" and getattr(k.value, "value", None) is True
                        for k in call.keywords):
                    mutable.append(f"{path.name}:{node.lineno} {node.name}")
    assert mutable == []


def test_every_private_function_is_used():
    # a private helper that nothing in the package names is code that no
    # output depends on; its own body does not count as a use
    private, used = set(), set()
    for path in SOURCES:
        for stmt in ast.parse(path.read_text()).body:
            names = {node.id for node in ast.walk(stmt) if isinstance(node, ast.Name)}
            names |= {node.attr for node in ast.walk(stmt) if isinstance(node, ast.Attribute)}
            names |= imported_names(stmt)
            if isinstance(stmt, ast.FunctionDef) and stmt.name.startswith("_"):
                private.add(stmt.name)
                names.discard(stmt.name)
            used |= names
    assert private - used == set()


def test_src_imports_only_numpy_and_the_stdlib():
    # the package declares numpy alone; scipy and the test tools are installed
    # here too, so a stray import of them would pass every other test
    allowed = set(sys.stdlib_module_names) | {"numpy", "bisac"}
    imported = set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and not node.level:
                imported.add(node.module.split(".")[0])
    assert imported - allowed == set()
