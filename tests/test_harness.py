import functools
import json
import math
import multiprocessing
import operator
import os
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from bisac import (
    ExperimentConfig,
    GeometryError,
    OfdmNumerology,
    PatternError,
    PeriodogramConfig,
    PilotPattern,
    RateRow,
    ScenarioEnsemble,
    SingularPatternError,
    make_periodic,
    run_rate_table,
    run_sweep,
    run_table1,
)
import bisac.estimator
import bisac.harness
from bisac.harness import (
    SWEEP_COLUMNS,
    rows_to_csv,
    simulate_trial,
    write_manifest,
)
from bisac.sim import IsiWarning
from reference_chain import reference_trial

pytestmark = pytest.mark.filterwarnings("ignore::bisac.sim.IsiWarning")


@pytest.fixture
def no_trial(monkeypatch):
    """Make any block of trials, and so any trial, fail the test, and the
    start of any process, such as a sweep worker, too."""
    def fail(*args):
        raise AssertionError("trial started")

    def fail_start(process):
        raise AssertionError("process started")

    monkeypatch.setattr(bisac.harness, "_trial_block", fail)
    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", fail_start)


# a function replaced in the test reaches a sweep's children only by fork
FORKED = pytest.mark.skipif(multiprocessing.get_context().get_start_method() != "fork",
                            reason="the replaced function reaches the children by fork")


@pytest.fixture
def fork_at_once(monkeypatch):
    """Make ``_dispatch`` start its children after the first task, whatever
    the work left."""
    monkeypatch.setattr(bisac.harness, "_BREAK_EVEN_S", 0.0)


@pytest.fixture
def started(monkeypatch):
    """The processes started during the test, which start as they would."""
    processes, start = [], multiprocessing.process.BaseProcess.start

    def counted(process):
        processes.append(process)
        start(process)

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", counted)
    return processes


@pytest.fixture
def many_cores(monkeypatch):
    """Let ``_dispatch`` start as many processes as the test counts on, on a
    machine of any number of cores."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)))


@pytest.fixture
def pcg64s(monkeypatch):
    """The seeds of the PCG64 generators constructed during the test, whether
    directly or through ``np.random.default_rng``."""
    seeds = []

    class Counted(np.random.PCG64):
        def __init__(self, seed=None):
            seeds.append(seed)
            super().__init__(seed)

    def default_rng(seed=None):
        return seed if isinstance(seed, np.random.Generator) else np.random.Generator(
            Counted(seed))

    monkeypatch.setattr(np.random, "PCG64", Counted)
    monkeypatch.setattr(np.random, "default_rng", default_rng)
    return seeds


def points(count: int) -> tuple:
    """``count`` SNR points [dB], 0 to 20 dB when there are several."""
    return tuple(np.linspace(0.0, 20.0, count).tolist()) if count > 1 else (20.0,)


def small_config(**overrides):
    base = dict(
        pattern=make_periodic(70, 50, 2, 1),
        snr_grid_db=(0.0, 20.0),
        trials_per_point=4,
        fft=PeriodogramConfig(256, 256),
        seed=7,
        ecrb_draws=2000,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


NAN, INF = math.nan, math.inf
CELLS = [[0, 0], [2.5, 3], [5, 7]]

# (field the error names, constructor call, config with the same value)
MALFORMED = [
    ("subcarrier_spacing_hz", lambda: OfdmNumerology(subcarrier_spacing_hz=NAN),
     {"numerology": {"subcarrier_spacing_hz": NAN}}),
    ("cp_duration_s", lambda: OfdmNumerology(cp_duration_s=NAN),
     {"numerology": {"cp_duration_s": NAN}}),
    ("carrier_hz", lambda: OfdmNumerology(carrier_hz=INF), {"numerology": {"carrier_hz": INF}}),
    ("n_subcarriers", lambda: OfdmNumerology(n_subcarriers=70.9),
     {"numerology": {"n_subcarriers": 70.9}}),
    ("x_range", lambda: ScenarioEnsemble(x_range=(NAN, 1.0)),
     {"ensemble": {"x_range": [NAN, 1.0]}}),
    ("x_range", lambda: ScenarioEnsemble(x_range=(1.0,)), {"ensemble": {"x_range": [1.0]}}),
    ("fft_n", lambda: PeriodogramConfig(fft_n=True), {"fft": {"fft_n": True}}),
    ("interpolate", lambda: PeriodogramConfig(interpolate="no"), {"fft": {"interpolate": "no"}}),
    ("fft_n", lambda: PeriodogramConfig(fft_n=1024.0), {"fft": {"fft_n": 1024.0}}),
    ("cells", lambda: PilotPattern(n_grid=70, m_grid=50, cells=CELLS),
     {"pattern": {"cells": CELLS}}),
    ("periodic", lambda: make_periodic(70, 50, 2.7, 1), {"pattern": {"periodic": [2.7, 1]}}),
    ("snr_grid_db", lambda: ExperimentConfig(snr_grid_db=5), {"snr_grid_db": 5}),
    ("out", lambda: ExperimentConfig(out=5), {"out": 5}),
    ("y_range", lambda: ScenarioEnsemble(y_range=(0, 10**400)),
     {"ensemble": {"y_range": [0, 10**400]}}),
    ("speed_range", lambda: ScenarioEnsemble(speed_range=(-1e308, 1e308)),
     {"ensemble": {"speed_range": [-1e308, 1e308]}}),
    ("x_range", lambda: ScenarioEnsemble(x_range=(1e308, 1.5e308)),
     {"ensemble": {"x_range": [1e308, 1.5e308]}}),
    ("rx_pos", lambda: ScenarioEnsemble(rx_pos=(0.0, 1e200)), {"ensemble": {"rx_pos": [0, 1e200]}}),
]

# numpy scalars and 1-D arrays, as perfbench passes them, against plain values
NUMPY_VALUES = [
    (lambda: OfdmNumerology(n_subcarriers=np.int64(70), carrier_hz=np.float32(3e9)),
     lambda: OfdmNumerology(n_subcarriers=70, carrier_hz=3e9)),
    (lambda: ScenarioEnsemble(x_range=np.array([80.0, 90.0]), speed_range=(np.int32(-3), 3)),
     lambda: ScenarioEnsemble(x_range=(80.0, 90.0), speed_range=(-3.0, 3.0))),
    (lambda: ExperimentConfig(fft=PeriodogramConfig(np.int64(256), np.int64(128),
                                                    np.bool_(False))),
     lambda: ExperimentConfig(fft=PeriodogramConfig(256, 128, False))),
    (lambda: make_periodic(np.int64(70), 50, np.int64(2), np.int32(5)),
     lambda: make_periodic(70, 50, 2, 5)),
    (lambda: PilotPattern(n_grid=70, m_grid=50, cells=np.array([[3, 4], [0, 1]], np.int32)),
     lambda: PilotPattern(n_grid=70, m_grid=50, cells=[[0, 1], [3, 4]])),
    (lambda: ExperimentConfig(snr_grid_db=np.array([0.0, 10.0]), seed=np.int64(3),
                              trials_per_point=np.int32(4)),
     lambda: ExperimentConfig(snr_grid_db=(0.0, 10.0), seed=3, trials_per_point=4)),
]


def config_echo(value) -> str:
    """The config file text of ``value``, or of a default config holding it."""
    if not isinstance(value, ExperimentConfig):
        section = {OfdmNumerology: "numerology", ScenarioEnsemble: "ensemble",
                   PilotPattern: "pattern"}[type(value)]
        value = ExperimentConfig(**{section: value})
    return json.dumps(value.to_json_dict())


class TestValidation:
    @pytest.mark.parametrize("field, build, spec", MALFORMED, ids=[r[0] for r in MALFORMED])
    def test_malformed_value_rejected_by_constructor_and_config(self, field, build, spec):
        with pytest.raises(ValueError, match=field):
            build()
        with pytest.raises(ValueError, match=field):
            ExperimentConfig.from_json_dict(spec)

    @pytest.mark.parametrize("build, plain", NUMPY_VALUES, ids=[
        "numerology", "ensemble", "fft", "make_periodic", "cells", "config"])
    def test_numpy_values_stored_as_plain_values(self, build, plain):
        # json.dumps fails on a numpy scalar stored as given
        assert config_echo(build()) == config_echo(plain())


# (field, a value of the wrong type): each fails in the constructor, naming its field
WRONG_SECTIONS = [("fft", 1024), ("pattern", (2, 1)), ("numerology", {}), ("ensemble", None)]


class TestSectionTypes:
    @pytest.mark.parametrize("field, value", WRONG_SECTIONS, ids=[r[0] for r in WRONG_SECTIONS])
    def test_wrong_type_rejected_naming_its_field(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be an instance of "):
            ExperimentConfig(**{field: value})


class TestConfig:
    def test_json_round_trip(self):
        cfg = small_config()
        back = ExperimentConfig.from_json_dict(cfg.to_json_dict())
        assert back.to_json_dict() == cfg.to_json_dict()
        assert back.pattern.periodic == (2, 1)
        assert back.snr_grid_db == cfg.snr_grid_db

    def test_explicit_cell_pattern(self):
        d = small_config().to_json_dict()
        d["pattern"] = {"cells": [[0, 0], [3, 5], [12, 40]]}
        cfg = ExperimentConfig.from_json_dict(d)
        assert cfg.pattern.periodic is None
        assert cfg.pattern.size == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            small_config(snr_grid_db=())
        with pytest.raises(ValueError):
            small_config(trials_per_point=0)
        with pytest.raises(ValueError):
            small_config(seed=-1)
        with pytest.raises(ValueError):
            small_config(workers=0)

    @pytest.mark.parametrize("change, message", [
        (dict(workers=0), "workers must be an integer >= 1, got 0"),
        (dict(numerology=OfdmNumerology(n_subcarriers=90)), "numerology grid 90x50"),
    ], ids=["workers", "numerology"])
    def test_replace_runs_every_check(self, change, message):
        # a frozen config changes only through replace, which checks again
        with pytest.raises(ValueError, match=message):
            replace(small_config(), **change)

    @pytest.mark.parametrize("snr_grid_db", [(0.0, math.inf), (math.nan,), (-math.inf,)])
    def test_snr_grid_must_be_finite(self, snr_grid_db):
        with pytest.raises(ValueError, match="finite"):
            small_config(snr_grid_db=snr_grid_db)

    def test_ensemble_carrier_follows_numerology(self):
        cfg = small_config()
        assert cfg.ensemble.carrier_hz == cfg.numerology.carrier_hz

    def test_callers_ensemble_left_unchanged(self):
        ensemble = ScenarioEnsemble(carrier_hz=28e9)
        cfg = small_config(ensemble=ensemble)
        assert cfg.ensemble.carrier_hz == 30e9
        assert ensemble.carrier_hz == 28e9

    def test_unknown_key_rejected_by_name(self):
        d = small_config().to_json_dict()
        d["trial_per_point"] = d.pop("trials_per_point")
        with pytest.raises(ValueError, match="trial_per_point"):
            ExperimentConfig.from_json_dict(d)

    @pytest.mark.parametrize("section", ["numerology", "pattern", "fft", "ensemble"])
    def test_unknown_nested_key_rejected_by_name(self, section):
        d = small_config().to_json_dict()
        d[section]["bogus_key"] = 1
        with pytest.raises(ValueError, match="bogus_key"):
            ExperimentConfig.from_json_dict(d)

    @pytest.mark.parametrize("grid", [{"N": 64}, {"M": 40}, {"N": 50, "M": 70}])
    def test_pattern_grid_must_match_numerology(self, grid):
        # a config file lays its pattern on the numerology's grid; a caller may not
        pattern = make_periodic(grid.get("N", 70), grid.get("M", 50), 2, 1)
        with pytest.raises(ValueError, match="numerology"):
            ExperimentConfig(pattern=pattern)

    # keys an older echo wrote, with the values it gave small_config()
    @pytest.mark.parametrize("section, key, value", [
        ("pattern", "N", 70), ("pattern", "M", 50), ("ensemble", "delta_range_deg", [-5, 5]),
    ])
    def test_non_constructor_key_rejected_by_name(self, section, key, value):
        d = small_config().to_json_dict()
        d[section][key] = value
        with pytest.raises(ValueError, match=f"unknown {section} key.*{key}"):
            ExperimentConfig.from_json_dict(d)

    def test_readme_config_example_is_the_echo(self):
        # the JSON block under "Config file schema" loads, and its echo restates it
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        schema = readme[readme.index("### Config file schema"):]
        start = schema.index("```json") + len("```json")
        block = json.loads(schema[start:schema.index("```", start)])
        echo = ExperimentConfig.from_json_dict(block).to_json_dict()
        assert {key: echo[key] for key in block} == block

    def test_default_pattern_follows_the_numerology(self):
        grid = {"n_subcarriers": 64, "n_symbols": 32}
        api = ExperimentConfig(numerology=OfdmNumerology(**grid))
        loaded = ExperimentConfig.from_json_dict({"numerology": grid})
        assert api.to_json_dict() == loaded.to_json_dict()
        assert (api.pattern.n_grid, api.pattern.m_grid, api.pattern.periodic) == (64, 32, (2, 1))

    def test_fft_default_is_desk_profile(self):
        assert PeriodogramConfig() == PeriodogramConfig(1024, 1024)
        assert ExperimentConfig().fft == PeriodogramConfig()
        assert ExperimentConfig.from_json_dict({}).fft == PeriodogramConfig()


class TestRunSweep:
    def test_single_trial_rmse_is_absolute_error(self):
        cfg = small_config(snr_grid_db=(30.0,), trials_per_point=1)
        result = run_sweep(cfg)
        # trial 0 of the reference chain, whose receiver runs on the full surface
        sq_err_d, sq_err_v, valid = reference_trial(cfg, 0, 0)[2]
        assert valid
        assert result.rows[0].rmse_range_m == pytest.approx(math.sqrt(sq_err_d), rel=1e-15)
        assert result.rows[0].rmse_vel_ms == pytest.approx(math.sqrt(sq_err_v), rel=1e-15)
        assert result.rows[0].valid_trial_fraction == 1.0

    def test_bound_column_decade_per_20_db(self):
        cfg = small_config(snr_grid_db=(0.0, 20.0), trials_per_point=1)
        rows = run_sweep(cfg).rows
        assert rows[0].sqrt_crb_ran_m / rows[1].sqrt_crb_ran_m == pytest.approx(
            10.0, rel=1e-12
        )
        assert rows[0].ecrb_vel_ms / rows[1].ecrb_vel_ms == pytest.approx(
            10.0, rel=1e-6
        )

    def test_worker_counts_byte_identical(self, fork_at_once, many_cores, started):
        # eight blocks, runs of 82 and 1 trials, whose trials cost several
        # times as much at the threshold SNRs as at the high ones
        cfg = small_config(snr_grid_db=(-30.0, -20.0, 0.0, 20.0), trials_per_point=83)
        texts = {w: run_sweep(replace(cfg, workers=w)).to_csv() for w in (1, 2, 3, 8)}
        assert texts[2] == texts[1] and texts[3] == texts[1] and texts[8] == texts[1]
        assert len(started) == 1 + 2 + 7
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("snr_grid_db, workers, children", [
        (points(1), 64, 0), (points(164), 64, 1), (points(246), 2, 1), (points(1), 2, 0),
        (points(2), 2, 0), (points(2), 64, 0), (points(3), 2, 0), (points(3), 64, 0),
        (points(328), 64, 3),
    ])
    def test_no_more_processes_than_blocks(self, fork_at_once, many_cores, started, snr_grid_db,
                                           workers, children):
        # one-trial points pack 82 to a block; with no break-even the calling
        # process starts min(workers, tasks left) - 1 children once it has run
        # the bound columns, and runs blocks itself beside them
        cfg = small_config(snr_grid_db=snr_grid_db, trials_per_point=1, workers=workers)
        serial = run_sweep(replace(cfg, workers=1)).to_csv()
        assert started == []
        assert run_sweep(cfg).to_csv() == serial
        assert len(started) == children
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("strides, trials, count", [((2, 1), 40, 3), ((2, 5), 100, 4)])
    def test_short_sweeps_start_no_process(self, monkeypatch, strides, trials, count):
        # the benchmark's sweep_desk and sweep_sparse inputs: on two cores one
        # process runs them faster than two, and they project well under the
        # break-even (a warm-up sweep first, as a long-lived process has run)
        cfg = ExperimentConfig(pattern=make_periodic(70, 50, *strides),
                               snr_grid_db=points(count), trials_per_point=trials,
                               fft=PeriodogramConfig(1024, 1024), seed=1, workers=2)
        serial = run_sweep(replace(cfg, workers=1)).to_csv()

        def fail(*args, **kwargs):
            raise AssertionError("multiprocessing object created")

        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", fail)
        monkeypatch.setattr(multiprocessing.context.BaseContext, "Value", fail)
        monkeypatch.setattr(multiprocessing.context.BaseContext, "Pipe", fail)
        assert run_sweep(cfg).to_csv() == serial

    @pytest.mark.parametrize("workers, children", [(2, 1), (8, 2)])
    def test_tasks_that_outlast_the_break_even_fork(self, many_cores, started, workers,
                                                   children):
        # after the first of four tasks the three left project to 1.5 times
        # the break-even
        nap = functools.partial(time.sleep, bisac.harness._BREAK_EVEN_S / 2)
        assert bisac.harness._dispatch([nap] * 4, workers) == [None] * 4
        assert len(started) == children
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("workers", [1, 2, 8])
    def test_runs_pack_up_to_the_block_length(self, monkeypatch, workers):
        # strides (2, 1) hold 82 trials a block at any worker count: 123
        # one-trial points make blocks of 82 and 41 runs, two 123-trial points
        # four blocks of one run each, 82 and 41 trials
        packed, dispatch = [], bisac.harness._dispatch

        def recorded(tasks, workers):
            # task 0 is the bound columns; each block task's argument is (config, runs)
            packed.append([task.args[0][1] for task in tasks[1:]])
            return dispatch(tasks, workers)

        monkeypatch.setattr(bisac.harness, "_dispatch", recorded)
        for count, trials in ((123, 1), (2, 123)):
            run_sweep(small_config(snr_grid_db=points(count), trials_per_point=trials,
                                   workers=workers))
        assert [[len(runs) for runs in blocks] for blocks in packed] == [[82, 41], [1] * 4]
        assert packed[1] == [[(0, 0, 82)], [(0, 82, 123)], [(1, 0, 82)], [(1, 82, 123)]]
        # the block length is a Python int, so are the runs' bounds
        assert all(type(bound) is int for blocks in packed for runs in blocks
                   for run in runs for bound in run)

    @pytest.mark.parametrize("count, workers", [(4, 1), (3, 2)])
    def test_one_process_packs_every_run(self, monkeypatch, count, workers):
        # strides (2, 5) hold 410 trials a run: the points' runs of 10 trials
        # make one block, which the calling process runs alone
        packed, block_errors = [], bisac.harness._block_errors

        def recorded(block):
            packed.append(block[1])
            return block_errors(block)

        def fail_start(process):
            raise AssertionError("process started")

        monkeypatch.setattr(bisac.harness, "_block_errors", recorded)
        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", fail_start)
        run_sweep(small_config(pattern=make_periodic(70, 50, 2, 5), snr_grid_db=points(count),
                               trials_per_point=10, workers=workers))
        assert packed == [[(snr_idx, 0, 10) for snr_idx in range(count)]]

    # runs per block of the benchmark's sweeps (perfbench/workloads.py:
    # strides, trials per point, SNR points) and of --profile full, whose
    # 13 points hold 1000 trials each
    LAYOUTS = {
        "sweep_desk": ((2, 1), 40, 3, [2, 1]),
        "sweep_full": ((2, 1), 40, 1, [1]),
        "sweep_sparse": ((2, 5), 100, 4, [4]),
        "bounds_table": ((2, 5), 10, 4, [4]),
        "full_2x1": ((2, 1), 1000, 13, [1] * 169),
        "full_2x5": ((2, 5), 1000, 13, [1] * 39),
    }

    @pytest.mark.parametrize("name", sorted(LAYOUTS))
    def test_benchmark_and_full_profile_layouts(self, monkeypatch, name):
        # the block length follows from the grids a block keeps: 82 trials
        # at strides (2, 1) and 410 at (2, 5), whatever the number of workers
        strides, trials, count, layout = self.LAYOUTS[name]
        assert bisac.estimator._block_length(35, 50) == 82
        assert bisac.estimator._block_length(35, 10) == 410
        packed = []

        def recorded(tasks, workers):
            # the blocks' layout, then valid trials of zero error in place of theirs
            blocks = [task.args[0][1] for task in tasks[1:]]
            packed.append(blocks)
            return [[(1.0, 1.0)] * count] + [
                (np.zeros(n), np.zeros(n), np.ones(n, bool))
                for n in (sum(stop - start for _, start, stop in runs) for runs in blocks)]

        monkeypatch.setattr(bisac.harness, "_dispatch", recorded)
        for workers in (1, 2, 8):
            run_sweep(small_config(pattern=make_periodic(70, 50, *strides),
                                   snr_grid_db=points(count), trials_per_point=trials,
                                   workers=workers))
        assert packed[0] == packed[1] == packed[2]
        assert [len(runs) for runs in packed[0]] == layout
        assert [run for runs in packed[0] for run in runs] == [
            (snr_idx, start, min(start + (82, 410)[strides == (2, 5)], trials))
            for snr_idx in range(count)
            for start in range(0, trials, (82, 410)[strides == (2, 5)])]

    @pytest.mark.parametrize("count", range(1, 13))
    def test_csv_byte_identical_at_any_worker_count(self, count):
        # one to twelve one-trial points: one to twelve blocks on up to four processes
        cfg = small_config(snr_grid_db=points(count), trials_per_point=1)
        texts = {run_sweep(replace(cfg, workers=w)).to_csv() for w in (1, 2, 3, 8)}
        assert len(texts) == 1
        assert multiprocessing.active_children() == []

    def test_sweep_warns_delay_beyond_prefix(self):
        # the default ensemble's delays, about 1 to 1.15 us, exceed the 1 us prefix
        with pytest.warns(IsiWarning, match="exceeds the cyclic prefix"):
            run_sweep(small_config(trials_per_point=1, workers=1))

    def test_csv_schema(self):
        text = run_sweep(small_config(trials_per_point=1)).to_csv()
        header = text.splitlines()[0]
        assert header == ",".join(SWEEP_COLUMNS)
        assert len(text.splitlines()) == 3

    # the "before any trial" tests run each config at one and two workers:
    # their checks run before the dispatcher, which would start a child
    # process only after tasks had run

    def test_non_periodic_pattern_rejected_before_any_trial(self, no_trial):
        for workers in (1, 2):
            d = small_config(trials_per_point=80, workers=workers).to_json_dict()
            d["pattern"] = {"cells": [[0, 0], [2, 3], [5, 7]]}
            cfg = ExperimentConfig.from_json_dict(d)
            with pytest.raises(PatternError, match="periodic"):
                run_sweep(cfg)
            with pytest.raises(PatternError, match="periodic"):
                simulate_trial(cfg, 0, 0)

    @pytest.mark.parametrize("snr_idx, trial_idx, name", [
        (2, 0, "snr_idx"), (-1, 0, "snr_idx"), (0.0, 0, "snr_idx"),
        (0, -1, "trial_idx"), (0, 1.5, "trial_idx"), (0, True, "trial_idx"),
    ])
    def test_simulate_trial_index_rejected_before_any_trial(self, snr_idx, trial_idx, name,
                                                            no_trial):
        for workers in (1, 2):
            with pytest.raises(ValueError, match=f"^{name} must be"):
                simulate_trial(small_config(workers=workers), snr_idx, trial_idx)

    @pytest.mark.parametrize("trial_idx", [0, 7, 10**12])
    def test_replay_draws_its_trial_once(self, pcg64s, trial_idx):
        # the truth, the grid and a degenerate draw's error come off the one
        # block of the trial; at 10**12 its generator takes _trial_seed
        for ensemble in (ScenarioEnsemble(),
                         ScenarioEnsemble(x_range=(-40.0, -40.0), y_range=(0.0, 0.0))):
            pcg64s.clear()
            simulate_trial(small_config(ensemble=ensemble), 1, trial_idx)
            assert len(pcg64s) == 1

    def test_simulate_trial_index_unbounded_above(self):
        # a trial is its seed key: any non-negative index runs
        truth, _, _ = simulate_trial(small_config(trials_per_point=1), 1, 10**12)
        assert math.isfinite(truth.d_bis)

    def test_collinear_pattern_rejected_before_any_trial(self, no_trial):
        for workers in (1, 2):
            with pytest.raises(SingularPatternError):
                run_sweep(small_config(pattern=make_periodic(70, 50, 70, 1),
                                       snr_grid_db=points(4), workers=workers))

    def test_overflowing_bound_rejected_before_any_trial(self, no_trial):
        # an accepted SNR at which the range bound overflows to inf
        for workers in (1, 2):
            with pytest.raises(ValueError, match="not finite, positive floats"):
                run_sweep(small_config(snr_grid_db=(-3000.0, 20.0), trials_per_point=80,
                                       workers=workers))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_all_degenerate_ensemble_raises_and_leaves_no_child(self, fork_at_once, started,
                                                                workers):
        # every target on the transmitter: each draw is skipped, and each
        # trial's geometry is degenerate too; the bound columns, the first
        # task, raise before any child could start (four blocks)
        on_tx = ScenarioEnsemble(x_range=(-40.0, -40.0), y_range=(0.0, 0.0))
        with pytest.raises(SingularPatternError, match="all ensemble draws"):
            run_sweep(small_config(ensemble=on_tx, trials_per_point=40, workers=workers))
        assert started == []
        assert multiprocessing.active_children() == []

    def test_degenerate_draw_is_an_invalid_trial(self):
        # every target of the point-mass box on the transmitter is degenerate
        on_tx = ScenarioEnsemble(x_range=(-40.0, -40.0), y_range=(0.0, 0.0))
        truth, grid, outcome = simulate_trial(small_config(ensemble=on_tx), 1, 3)
        assert truth is None
        assert isinstance(outcome, GeometryError)
        assert str(outcome).startswith("degenerate geometry")
        assert grid.shape == (35, 50) and np.isfinite(grid).all()

    @pytest.mark.parametrize("workers", [1, pytest.param(2, marks=FORKED)])
    def test_degenerate_draw_leaves_the_sweep_running(self, monkeypatch, fork_at_once,
                                                      workers):
        # the third draw of each four is degenerate, as the truth kernel
        # marks one, after its four uniforms; the other trials keep their bits
        cfg = small_config(snr_grid_db=points(4), trials_per_point=20, workers=workers)
        def trials(errors):
            return list(zip(*(column.tolist() for column in errors)))

        clean = [trials(bisac.harness._block_errors((cfg, [(s, 0, 20)]))) for s in range(4)]
        draws, truth_columns = [], bisac.sim._truth_columns

        def third_degenerate(scene, uniforms):
            columns, degenerate, legs = truth_columns(scene, uniforms)
            for trial in range(len(degenerate)):
                draws.append(trial)
                if len(draws) % 4 == 3:
                    degenerate[trial], columns[:, trial] = True, 0.0
            return columns, degenerate, legs

        def kept(trials):
            return [trial for i, trial in enumerate(trials) if i % 4 != 2]

        monkeypatch.setattr(bisac.sim, "_truth_columns", third_degenerate)
        for snr_idx, errors in enumerate(clean):
            failed = trials(bisac.harness._block_errors((cfg, [(snr_idx, 0, 20)])))
            assert all(trial[2] is False and math.isnan(trial[0]) for trial in failed[2::4])
            assert kept(failed) == kept(errors)
        # a block is one point of 20 trials here, and each process's draws
        # count in fours, so every point loses its trials 2, 6, ..., 18
        rows = run_sweep(cfg).rows
        assert multiprocessing.active_children() == []
        for row, errors in zip(rows, clean):
            kept_errors = kept(errors)
            assert row.valid_trial_fraction == 0.75
            assert row.rmse_range_m == math.sqrt(np.mean([e[0] for e in kept_errors]))
            assert row.rmse_vel_ms == math.sqrt(np.mean([e[1] for e in kept_errors]))

    # the default baseline segment runs from the transmitter (-40, 0) to the
    # receiver (0, 40): the first box holds its point (-20, 20), the second
    # meets it at its corner (-19, 21) alone, the third is 1 m off it
    @pytest.mark.parametrize("y_range", [(19.0, 21.0), (21.0, 25.0)])
    def test_box_on_the_baseline_segment_rejected_before_any_trial(self, y_range, no_trial):
        on_segment = ScenarioEnsemble(x_range=(-21.0, -19.0), y_range=y_range)
        for workers in (1, 2):
            config = small_config(ensemble=on_segment, trials_per_point=80, workers=workers)
            with pytest.raises(SingularPatternError, match="baseline segment"):
                run_sweep(config)
            with pytest.raises(SingularPatternError, match="baseline segment"):
                run_table1(config)

    def test_box_off_the_baseline_segment_has_finite_bounds(self):
        off_segment = ScenarioEnsemble(x_range=(-21.0, -19.0),
                                       y_range=(21.0 + math.sqrt(2.0), 25.0))
        csvs = set()
        for workers in (1, 2):
            config = small_config(ensemble=off_segment, workers=workers)
            result = run_sweep(config)
            assert all(math.isfinite(row.ecrb_vel_ms) for row in result.rows)
            assert all(math.isfinite(row.ecrb_vel_ms) for row in run_table1(config))
            csvs.add(result.to_csv())
        assert len(csvs) == 1

    def test_one_geometry_draw_per_call(self, monkeypatch):
        calls = []
        draw = bisac.bounds._ecrb_geometry

        def counted(*args):
            calls.append(args)
            return draw(*args)

        monkeypatch.setattr(bisac.bounds, "_ecrb_geometry", counted)
        run_sweep(small_config(snr_grid_db=(0.0, 10.0, 20.0), trials_per_point=1))
        run_table1(small_config(), draws=2000)
        assert len(calls) == 2

    def test_all_trials_valid_at_tenth_overhead_zero_db(self):
        cfg = small_config(
            pattern=make_periodic(70, 50, 2, 5),
            snr_grid_db=(0.0,),
            trials_per_point=100,
            fft=PeriodogramConfig(512, 512),
        )
        row = run_sweep(cfg).rows[0]
        assert row.valid_trial_fraction == 1.0


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_dispatch_returns_the_results_in_task_order(fork_at_once, many_cores, started,
                                                    workers):
    # the first task, whose result is the id of the process that ran it, runs
    # in the calling process, before the children start
    tasks = [os.getpid, *(functools.partial(operator.mul, i, i) for i in range(1, 7))]
    results = bisac.harness._dispatch(tasks, workers)
    assert results == [os.getpid(), *(i * i for i in range(1, 7))]
    assert len(started) == workers - 1
    assert multiprocessing.active_children() == []


def test_dispatch_starts_no_more_processes_than_cores(fork_at_once, monkeypatch):
    # two cores: a million workers start one child beside the caller, where
    # the tasks left alone would allow five; a second start fails the test
    # before it forks
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    processes, start = [], multiprocessing.process.BaseProcess.start

    def once(process):
        processes.append(process)
        assert len(processes) == 1, "a second process started"
        start(process)

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", once)
    tasks = [os.getpid, *(functools.partial(operator.mul, i, i) for i in range(1, 7))]
    assert bisac.harness._dispatch(tasks, 10**6) == [os.getpid(), *(i * i for i in range(1, 7))]
    assert len(processes) == 1
    assert multiprocessing.active_children() == []


def test_dispatch_first_task_raises_before_any_child(fork_at_once, started):
    tasks = [functools.partial(operator.truediv, 1, 0), os.getpid, os.getpid]
    with pytest.raises(ZeroDivisionError):
        bisac.harness._dispatch(tasks, 3)
    assert started == []
    assert multiprocessing.active_children() == []


@FORKED
@pytest.mark.usefixtures("fork_at_once", "many_cores")
class TestDispatch:
    """Failures of the blocks of a parallel sweep: four blocks of 82 trials,
    one process beside the caller, started once the caller has run the bound
    columns. Each test that runs a block fails unless a child took one."""

    CONFIG = small_config(snr_grid_db=points(4), trials_per_point=82, workers=2)

    @pytest.fixture
    def blocks(self, monkeypatch):
        """Run ``actions["caller"]()`` for each block the calling process takes
        and ``actions["child"]()`` for each a child takes, in place of the
        block's trials, which then count as valid with zero error;
        ``actions["taken"]`` is set once a child has taken a block, and must
        be by the end of the test."""
        caller = os.getpid()
        actions = {"taken": multiprocessing.Event()}

        def block_errors(block):
            if os.getpid() == caller:
                actions["caller"]()
            else:
                actions["taken"].set()
                actions["child"]()
            n = sum(stop - start for _, start, stop in block[1])
            return np.zeros(n), np.zeros(n), np.ones(n, bool)

        monkeypatch.setattr(bisac.harness, "_block_errors", block_errors)
        yield actions
        assert actions["taken"].is_set(), "no child took a block"

    def test_child_exception_is_raised_in_the_caller(self, blocks):
        # the caller's block waits until the child has taken another one
        blocks.update(caller=lambda: blocks["taken"].wait(30), child=lambda: 1 / 0)
        with pytest.raises(ZeroDivisionError) as info:
            run_sweep(self.CONFIG)
        assert "in a sweep worker process" in str(info.value.__cause__)
        assert multiprocessing.active_children() == []

    def test_caller_exception_stops_the_children(self, blocks):
        def fail():
            blocks["taken"].wait(30)
            raise KeyError("caller block")

        blocks.update(caller=fail, child=lambda: time.sleep(60))
        began = time.perf_counter()
        with pytest.raises(KeyError, match="caller block"):
            run_sweep(self.CONFIG)
        assert time.perf_counter() - began < 30
        assert multiprocessing.active_children() == []

    def test_child_exit_without_a_result_is_an_error(self, blocks):
        blocks.update(caller=lambda: blocks["taken"].wait(30), child=lambda: os._exit(3))
        with pytest.raises(RuntimeError, match="exited with code 3 without sending"):
            run_sweep(self.CONFIG)
        assert multiprocessing.active_children() == []

    def test_bound_columns_run_in_the_caller_before_any_child(self, monkeypatch):
        caller = os.getpid()
        taken, runs = multiprocessing.Event(), []
        bound_columns, block_errors = bisac.harness._bound_columns, bisac.harness._block_errors

        def recorded(*args):
            runs.append((os.getpid(), multiprocessing.active_children()))
            return bound_columns(*args)

        def child_block_errors(block):
            if os.getpid() != caller:
                taken.set()
            return block_errors(block)

        monkeypatch.setattr(bisac.harness, "_bound_columns", recorded)
        monkeypatch.setattr(bisac.harness, "_block_errors", child_block_errors)
        serial = run_sweep(replace(self.CONFIG, workers=1)).to_csv()
        runs.clear()
        assert run_sweep(self.CONFIG).to_csv() == serial
        assert runs == [(caller, [])]
        assert taken.is_set(), "no child took a block"
        assert multiprocessing.active_children() == []

    def test_all_degenerate_ensemble_raises_however_the_child_runs(self, monkeypatch,
                                                                  started):
        # every block's trials would be invalid (a target on the transmitter
        # has no geometry), but no block runs: the bound columns, the first
        # task, raise in the caller before a child could take one
        caller = os.getpid()
        runs, bound_columns = [], bisac.harness._bound_columns

        def recorded(*args):
            runs.append((os.getpid(), multiprocessing.active_children()))
            return bound_columns(*args)

        def no_block(block):
            raise AssertionError("a block ran")

        monkeypatch.setattr(bisac.harness, "_bound_columns", recorded)
        monkeypatch.setattr(bisac.harness, "_block_errors", no_block)
        on_tx = ScenarioEnsemble(x_range=(-40.0, -40.0), y_range=(0.0, 0.0))
        with pytest.raises(SingularPatternError, match="all ensemble draws"):
            run_sweep(replace(self.CONFIG, ensemble=on_tx))
        assert runs == [(caller, [])]
        assert started == []
        assert multiprocessing.active_children() == []


class TestTables:
    def test_table_rows_share_pilot_count(self):
        rows = run_table1(small_config(), snr_db=5.0, draws=2000)
        assert [r.pilot_count for r in rows] == [350, 350, 350, 350]
        assert [(r.n_p, r.m_p) for r in rows] == [(1, 11), (2, 5), (5, 2), (11, 1)]

    def test_table_ratios_are_the_ratios_of_index_spreads(self):
        # at equal pilot counts each bound falls as the spread of its axis's
        # pilot indices n_p k (m_p l) grows, sqrt(n_p^2 ((K+1)^2 - 1) / 12):
        # bound times spread is one number across the pairs (5.0741 m and
        # 2.8652 m/s here), and the velocity rows share one geometry draw
        rows = run_table1(ExperimentConfig(seed=1), snr_db=5.0, draws=2000)
        assert [(r.n_p, r.m_p) for r in rows] == list(bisac.harness.DEFAULT_TABLE_PAIRS)
        products = []
        for r in rows:
            k, l = (count + 1 for count in make_periodic(70, 50, r.n_p, r.m_p).periodic_counts())
            products.append((r.sqrt_crb_ran_m * math.sqrt(r.n_p**2 * (k**2 - 1) / 12),
                             r.ecrb_vel_ms * math.sqrt(r.m_p**2 * (l**2 - 1) / 12)))
        for column in zip(*products):
            assert max(column) - min(column) <= 1e-12 * min(column)
        assert products[0] == pytest.approx((5.0741391245619, 2.8652221526889), rel=1e-12)

    @pytest.mark.parametrize("draws", [0, 2.5, True])
    def test_table_draws_must_be_a_positive_integer(self, draws):
        with pytest.raises(ValueError, match="draws"):
            run_table1(small_config(), snr_db=5.0, draws=draws)

    def test_rate_table_values(self):
        rows = run_rate_table(small_config())
        by_rho = {r.rho: r.rate_bps for r in rows}
        assert by_rho[1.0] == 0.0
        assert by_rho[0.1] == pytest.approx(21.602e6, abs=1e3)
        custom = run_rate_table(small_config(), rhos=(0.3,))
        assert custom[0].rate_bps == pytest.approx(16.801e6, abs=1e3)

    def test_rows_to_csv(self):
        rows = run_rate_table(small_config(), rhos=(0.5,))
        text = rows_to_csv(rows, RateRow)
        assert text.splitlines()[0] == "rho,rate_bps"
        assert text.splitlines()[1].startswith("0.5,")


class TestManifest:
    def test_manifest_contents(self, tmp_path):
        cfg = small_config()
        path = tmp_path / "run.manifest.json"
        write_manifest(cfg, path)
        data = json.loads(path.read_text())
        assert data["csv_schema_version"] == 1
        assert data["config"]["seed"] == 7
        assert data["config"]["pattern"] == {"periodic": [2, 1]}
        assert "package_version" in data
