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


def functions(path: Path) -> dict:
    """The module-level functions of ``path`` by name."""
    return {node.name: node for node in ast.parse(path.read_text()).body
            if isinstance(node, ast.FunctionDef)}


def names_in(node) -> set:
    """Every name and attribute in ``node``."""
    return ({n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            | {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)})


def test_one_readout_from_the_maximum_to_the_estimates():
    # estimate, simulate_trial and the sweep blocks read the estimates off the
    # maximum through one function, the only one in estimator.py that inverts
    # ranges, with one column kernel call and no loop over the trials; the
    # estimator catches no GeometryError, and one function of the package
    # turns the kernel's reason codes into one. A trial block only draws, and
    # its callers choose their readout
    package = Path(bisac.__file__).parent
    estimator = functions(package / "estimator.py")
    inverting = {name for name, func in estimator.items() if "_invert_columns" in names_in(func)}
    assert inverting == {"_estimates"}
    catching = {name for name, func in estimator.items() for node in ast.walk(func)
                if isinstance(node, ast.ExceptHandler)
                and "GeometryError" in names_in(node.type or ast.Pass())}
    assert catching == set()
    reasons = {"baseline must be nonnegative", "nonpositive ellipse denominator",
               "nonpositive leg after bistatic-range inversion"}
    texts = {name for path in SOURCES for name, func in functions(path).items()
             for node in ast.walk(func) if getattr(node, "value", None) in reasons
             or "does not exceed baseline" in str(getattr(node, "value", ""))}
    assert texts == {"_inversion_error"}
    harness = functions(package / "harness.py")
    loops = (ast.For, ast.While, ast.comprehension)
    for func in (estimator["_estimates"], harness["_block_errors"]):
        assert not any(isinstance(node, loops) for node in ast.walk(func)), func.name
    params = harness["_trial_block"].args
    assert [a.arg for a in params.posonlyargs + params.args + params.kwonlyargs] == [
        "config", "runs"]
    assert params.vararg is None and params.kwarg is None


def test_trial_draw_loops_over_generator_calls_alone():
    # a block's draw calls each trial's generator and nothing else per trial:
    # the truths and the channel take whole columns
    (loop,) = [node for node in ast.walk(functions(
        Path(bisac.__file__).parent / "sim.py")["simulate_pilots"]) if isinstance(node, ast.For)]
    calls = [node.func for node in ast.walk(loop) if isinstance(node, ast.Call)]
    assert {getattr(f, "attr", getattr(f, "id", None)) for f in calls} == {
        "enumerate", "default_rng", "random", "random_raw", "standard_normal"}


def test_one_draw_of_a_trial_and_one_scaling_of_its_uniforms():
    # a replayed trial reads its truth off its block, so the ensemble keeps
    # no draw of truths or targets beside the scenario's; and one method
    # scales the uniforms of every draw to their ranges: any other call of
    # _ranges only checks them
    assert {"sample_truth", "sample_targets"} & set(dir(bisac.ScenarioEnsemble)) == set()
    scaling = set()
    for path in SOURCES:
        for func in ast.walk(ast.parse(path.read_text())):
            if isinstance(func, ast.FunctionDef):
                checks = {id(stmt.value) for stmt in ast.walk(func) if isinstance(stmt, ast.Expr)}
                if any(isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "_ranges"
                       and id(node) not in checks for node in ast.walk(func)):
                    scaling.add(func.name)
    assert scaling == {"_scale"}


def test_one_gather_path_in_the_search():
    # _lattice multiplies its (grid, theta) pairs by their grids in one
    # _grid_products call, with no loop of its own, and every search helper
    # takes its grid indices: none compares an index with None
    estimator = functions(Path(bisac.__file__).parent / "estimator.py")
    loops = (ast.For, ast.While, ast.comprehension)
    assert not any(isinstance(node, loops) for node in ast.walk(estimator["_lattice"]))
    assert "_grid_products" in names_in(estimator["_lattice"])
    none_tests = {name for name, func in estimator.items() for node in ast.walk(func)
                  if isinstance(node, ast.Compare) and "index" in names_in(node)
                  and any(getattr(c, "value", 0) is None for c in node.comparators + [node.left])}
    defaults = {name for name, func in estimator.items()
                for arg, default in zip(func.args.args[::-1], func.args.defaults[::-1])
                if arg.arg == "index"}
    assert none_tests | defaults == set()


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
