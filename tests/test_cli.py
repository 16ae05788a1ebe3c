import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bisac
import bisac.cli
import bisac.harness
from bisac import (
    ExperimentConfig,
    OfdmNumerology,
    PeriodogramConfig,
    ScenarioEnsemble,
    SensingChannelParams,
    crb,
    derive_ground_truth,
    make_periodic,
    read_grid,
    run_sweep,
)
from bisac.cli import _parse_snr_grid, main
from bisac.harness import simulate_trial
from reference_chain import block_trials

pytestmark = pytest.mark.filterwarnings("ignore::bisac.sim.IsiWarning")


class TestSnrGridParsing:
    def test_range_form(self):
        assert _parse_snr_grid("-30:30:10") == (-30, -20, -10, 0, 10, 20, 30)

    def test_list_form(self):
        assert _parse_snr_grid("0,5,10") == (0.0, 5.0, 10.0)

    def test_single_value(self):
        assert _parse_snr_grid("5") == (5.0,)


class TestUsageErrors:
    def test_zero_trials_exits_before_any_trial(self, tmp_path, monkeypatch, capsys):
        def no_sweep(config):
            raise AssertionError("sweep started")

        monkeypatch.setattr(bisac.cli, "run_sweep", no_sweep)
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--trials", "0", "--out", str(tmp_path / "s.csv")])
        assert exc.value.code == 2
        assert "--trials" in capsys.readouterr().err
        assert not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize("command, flag", [
        ("sweep", "--trials"), ("sweep", "--workers"), ("sweep", "--fft"),
        ("crb", "--np"), ("crb", "--mp"), ("table1", "--draws"),
    ])
    @pytest.mark.parametrize("value", ["0", "-3", "two"])
    def test_count_flags_need_positive_integers(self, command, flag, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, flag, value])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("args, message", [
        (["--fft", "100"], "power of two"),
        (["--seed", "-1"], "seed"),
    ])
    def test_config_value_errors(self, args, message, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", *args])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["sweep", "simulate"])
    def test_receiver_needs_periodic_pattern(self, command, tmp_path, capsys):
        cfg_file = tmp_path / "cells.json"
        cfg_file.write_text(json.dumps({
            "pattern": {"cells": [[0, 0], [2, 3], [5, 7]]},
            "trials_per_point": 1,
        }))
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(cfg_file), "--out", str(out)])
        assert exc.value.code == 2
        assert "periodic" in capsys.readouterr().err
        assert not out.exists()
        # the bounds accept any pattern
        assert main(["crb", "--config", str(cfg_file), "--out", str(out)]) == 0

    def test_missing_config_file(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["crb", "--config", str(tmp_path / "missing.json")])
        assert exc.value.code == 2
        assert "missing.json" in capsys.readouterr().err

    @pytest.mark.parametrize("fft", [2**41, 2**62, 2**70])
    def test_fft_beyond_the_cap_exits_before_any_trial(self, fft, monkeypatch, capsys):
        # at 2^62 the offsets read 0.0 and at 2^70 the peak bins raised a
        # TypeError, both after the trial
        def no_trial(*a):
            raise AssertionError("trial started")

        monkeypatch.setattr(bisac.harness, "_trial_block", no_trial)
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--fft", str(fft)])
        assert exc.value.code == 2
        assert (f"fft_n must be at most 1099511627776, got {fft}"
                in capsys.readouterr().err.splitlines()[-1])

    @pytest.mark.parametrize("command, args, message", [
        ("crb", ["--np", "70"], "collinear"),
        ("sweep", ["--np", "70", "--trials", "1"], "collinear"),
    ])
    def test_unrunnable_config_exits_before_any_trial(self, command, args, message,
                                                      tmp_path, monkeypatch, capsys):
        def no_trial(*a):
            raise AssertionError("trial started")

        monkeypatch.setattr(bisac.harness, "_trial_block", no_trial)
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main([command, *args, "--out", str(out)])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


# the flags each subcommand reads, written out here rather than taken from bisac.cli
COMMAND_FLAGS = {
    "crb": {"--config", "--np", "--mp", "--snr-db", "--out", "--beta-deg"},
    "sweep": {"--config", "--seed", "--np", "--mp", "--fft", "--trials", "--snr-db",
              "--workers", "--profile", "--out"},
    "table1": {"--config", "--seed", "--snr-db", "--out", "--draws"},
    "rates": {"--config", "--out", "--snr-comm-db", "--rhos"},
    "simulate": {"--config", "--seed", "--np", "--mp", "--fft", "--snr-db", "--profile",
                 "--out", "--dump-surface", "--trial"},
}

# a valid value for each flag that some subcommand does not read
FLAG_VALUES = {
    "--seed": "1", "--np": "2", "--mp": "5", "--fft": "256", "--trials": "1",
    "--snr-db": "30", "--workers": "1", "--profile": "desk",
}

# the 21 (subcommand, flag) pairs of the common flags that the subcommand does not read
UNREAD_FLAGS = [
    (command, flag)
    for command, flags in COMMAND_FLAGS.items()
    for flag in sorted(FLAG_VALUES)
    if flag not in flags
]


class TestFlagSets:
    @pytest.mark.parametrize("command", sorted(COMMAND_FLAGS))
    def test_each_subcommand_has_exactly_its_flags(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        options = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", capsys.readouterr().out))
        assert options - {"--help"} == COMMAND_FLAGS[command]

    @pytest.mark.parametrize("command, flag", UNREAD_FLAGS)
    def test_unread_flag_is_a_usage_error(self, command, flag, tmp_path, capsys):
        # the flag is rejected before the (missing) config file is opened
        missing = tmp_path / "missing.json"
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(missing), flag, FLAG_VALUES[flag]])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"unrecognized arguments: {flag}" in err
        assert "missing.json" not in err


class TestBadValues:
    @pytest.mark.parametrize("spec, key", [
        ({"pattern": {}}, "periodic"),
        ({"snr_grid_db": 5}, "snr_grid_db"),
        ([1], "config"),
        ({"ensemble": {"x_range": [1]}}, "x_range"),
        ({"ensemble": {"delta_range_deg": [5]}}, "delta_range_deg"),
        ({"numerology": {"n_subcarriers": 70.9}}, "n_subcarriers"),
        ({"pattern": {"periodic": [2.7, 1]}}, "periodic"),
        ({"fft": {"interpolate": "no"}}, "interpolate"),
        ({"fft": {"fft_n": 1024.0}}, "fft_n"),
        ({"pattern": {"cells": [[0, 0], [2.5, 3], [5, 7]]}}, "cells"),
        ({"pattern": {"periodic": [2, 1], "cells": [[0, 0], [2, 3], [5, 7]]}}, "cells"),
        ({"numerology": 3}, "numerology"),
        ({"out": ["sweep.csv"]}, "out"),
        ({"pattern": 3}, "pattern"),
        ({"fft": 3}, "fft"),
        ({"ensemble": 3}, "ensemble"),
        ({"ensemble": {"delta_range": [5]}}, "delta_range"),
        ({"numerology": {"carrier_hz": 10**400}}, "carrier_hz"),
        ({"ensemble": {"speed_range": [-1e308, 1e308]}}, "speed_range"),
    ])
    def test_malformed_config_value_names_its_key(self, spec, key, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps(spec))
        with pytest.raises(SystemExit) as exc:
            main(["crb", "--config", str(cfg_file)])
        assert exc.value.code == 2
        assert key in capsys.readouterr().err.splitlines()[-1]

    @pytest.mark.parametrize("command", ["crb", "sweep"])
    def test_ensemble_whose_squared_ranges_overflow(self, command, tmp_path, capsys):
        # rejected by the ensemble, before any numpy warning, also under -W error
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"ensemble": {"x_range": [1e308, 1.5e308]}}))
        argv = [command, "--config", str(cfg_file), "--out", str(tmp_path / "out")]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "x_range" in capsys.readouterr().err.splitlines()[-1]
        src = str(Path(bisac.__file__).parents[1])
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-W", "error", "-m", "bisac.cli", *argv],
                              env=env, capture_output=True, text=True)
        assert proc.returncode == 2
        assert "x_range" in proc.stderr.splitlines()[-1]
        assert not list(tmp_path.glob("out*"))

    @pytest.mark.parametrize("args, flag", [
        (["crb", "--snr-db", "inf"], "--snr-db"),
        (["sweep", "--snr-db", "inf"], "--snr-db"),
        (["sweep", "--snr-db", "0:inf:10"], "--snr-db"),
        (["crb", "--snr-db", "nan"], "--snr-db"),
        (["crb", "--beta-deg", "nan"], "--beta-deg"),
        (["rates", "--snr-comm-db", "nan"], "--snr-comm-db"),
        (["rates", "--rhos", "2"], "--rhos"),
        (["rates", "--rhos", "0.1,-0.5"], "--rhos"),
        (["rates", "--rhos", "abc"], "--rhos"),
        (["crb", "--snr-db", "abc"], "--snr-db"),
        (["sweep", "--snr-db", "0:abc:1"], "--snr-db"),
        (["crb", "--beta-deg", "abc"], "--beta-deg"),
        (["rates", "--snr-comm-db", "abc"], "--snr-comm-db"),
        # a linear SNR or its reciprocal that overflows or underflows a float
        (["crb", "--snr-db", "-4000"], "--snr-db"),
        (["crb", "--snr-db", "4000"], "--snr-db"),
        (["table1", "--snr-db", "-4000"], "--snr-db"),
        (["rates", "--snr-comm-db", "4000"], "--snr-comm-db"),
        (["sweep", "--snr-db", "0:1e300:1e-10"], "--snr-db"),
        (["sweep", "--snr-db", "0:1e300:1e-5"], "--snr-db"),
        # a point count that is not finite, or above the cap
        (["sweep", "--snr-db", "0:10:5e-324"], "--snr-db"),
        (["sweep", "--snr-db", "0:100:0.001"], "--snr-db"),
        (["sweep", "--snr-db", "10:0:1"], "--snr-db"),
    ])
    def test_non_finite_or_out_of_range_flag(self, args, flag, monkeypatch, capsys):
        def no_sweep(config):
            raise AssertionError("sweep started")

        monkeypatch.setattr(bisac.cli, "run_sweep", no_sweep)
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: " in err
        # the message is the parser's, not the name of a private function
        assert "_parse" not in err and "_finite" not in err

    @pytest.mark.parametrize("command, grid", [
        ("crb", "0:20:10"), ("table1", "0,20"), ("simulate", "0,20"),
    ])
    def test_single_snr_subcommand_rejects_a_grid(self, command, grid, tmp_path, capsys):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main([command, "--snr-db", grid, "--out", str(out)])
        assert exc.value.code == 2
        assert "--snr-db: expected a single value" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["crb", "--snr-db", "-3000"],
        ["table1", "--snr-db", "-3000"],
        ["sweep", "--snr-db", "-3000", "--trials", "1"],
    ], ids=lambda argv: argv[0])
    def test_bound_that_overflows_is_a_usage_error(self, argv, tmp_path, monkeypatch, capsys):
        # an accepted SNR at which the range bound overflows to inf
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert "not finite, positive" in captured.err.splitlines()[-1]
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag", ["--out", "--dump-surface"])
    def test_unwritable_output_is_a_usage_error(self, flag, tmp_path, capsys):
        missing = tmp_path / "missing" / "out"
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--fft", "64", flag, str(missing)])
        assert exc.value.code == 2
        assert "missing" in capsys.readouterr().err.splitlines()[-1]

    @pytest.mark.parametrize("argv", [
        ["sweep", "--snr-db", "0,10", "--trials", "300", "--fft", "256"],
        ["simulate", "--fft", "4096"],
    ], ids=lambda argv: argv[0])
    def test_unwritable_output_found_before_any_trial(self, argv, tmp_path, monkeypatch,
                                                      capsys):
        def no_trial(*a):
            raise AssertionError("trial started")

        monkeypatch.setattr(bisac.harness, "_trial_block", no_trial)
        missing = str(tmp_path / "missing" / "out")
        flag = "--out" if argv[0] == "sweep" else "--dump-surface"
        with pytest.raises(SystemExit) as exc:
            main([*argv, flag, missing])
        assert exc.value.code == 2
        assert missing in capsys.readouterr().err.splitlines()[-1]

    @pytest.mark.parametrize("command", ["crb", "sweep"])
    def test_output_that_is_a_directory_is_a_usage_error(self, command, tmp_path,
                                                          monkeypatch, capsys):
        def no_sweep(config):
            raise AssertionError("sweep started")

        monkeypatch.setattr(bisac.cli, "run_sweep", no_sweep)
        with pytest.raises(SystemExit) as exc:
            main([command, "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert str(tmp_path) in capsys.readouterr().err.splitlines()[-1]
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("beta_deg", ["180", "540", "-30"])
    def test_bistatic_angle_outside_zero_to_pi(self, beta_deg, tmp_path, capsys):
        out = tmp_path / "crb.json"
        with pytest.raises(SystemExit) as exc:
            main(["crb", "--beta-deg", beta_deg, "--out", str(out)])
        assert exc.value.code == 2
        assert "beta" in capsys.readouterr().err.splitlines()[-1]
        assert not out.exists()

    @pytest.mark.parametrize("text", ['{"snr_grid_db": [NaN]}', '{"snr_grid_db": [Infinity]}'])
    def test_non_finite_snr_in_config_file(self, text, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(text)
        with pytest.raises(SystemExit) as exc:
            main(["crb", "--config", str(cfg_file)])
        assert exc.value.code == 2
        assert "snr_grid_db" in capsys.readouterr().err


@pytest.fixture
def handled(monkeypatch):
    """Stub every subcommand's handler: each records (command, config, args)
    here and returns 0, so no trial or bound runs."""
    calls = []
    for name, (_, help_text, flags) in list(bisac.cli._COMMANDS.items()):
        def handler(config, args, name=name):
            calls.append((name, config, args))
            return 0

        monkeypatch.setitem(bisac.cli._COMMANDS, name, (handler, help_text, flags))
    return calls


class TestValuesStartingWithMinus:
    @pytest.mark.parametrize("value, grid", [
        ("-30:30:20", (-30.0, -10.0, 10.0, 30.0)),
        ("-5,0,5", (-5.0, 0.0, 5.0)),
        ("-1e1", (-10.0,)),
    ])
    @pytest.mark.parametrize("joined", [False, True])
    def test_snr_grid(self, value, grid, joined, handled, tmp_path):
        argv = [f"--snr-db={value}"] if joined else ["--snr-db", value]
        assert main(["sweep", *argv, "--out", str(tmp_path / "s.csv")]) == 0
        assert handled[0][1].snr_grid_db == grid

    @pytest.mark.parametrize("command, flag, value, dest, expected", [
        ("sweep", "--snr", "-5,0,5", "snr_grid_db", (-5.0, 0.0, 5.0)),
        ("sweep", "--snr-d", "-30:30:20", "snr_grid_db", (-30.0, -10.0, 10.0, 30.0)),
        ("rates", "--snr", "-1e1", "snr_comm_db", -10.0),
    ])
    def test_unique_flag_prefix(self, command, flag, value, dest, expected, handled, tmp_path):
        # argparse takes a unique prefix of a flag for the flag
        argv = [command, flag, value]
        if command == "sweep":
            argv += ["--trials", "1", "--fft", "64", "--out", str(tmp_path / "s.csv")]
        assert main(argv) == 0
        assert getattr(handled[0][2], dest) == expected

    def test_ambiguous_flag_prefix_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--s", "-5,0,5"])
        assert exc.value.code == 2
        assert "ambiguous option: --s could match --seed, --snr-db" in capsys.readouterr().err

    def test_communication_snr(self, handled):
        assert main(["rates", "--snr-comm-db", "-1e1"]) == 0
        assert handled[0][2].snr_comm_db == -10.0

    @pytest.mark.parametrize("argv, message", [
        (["crb", "--beta-deg", "-1e1"], "beta must lie in [0, pi)"),
        (["rates", "--rhos", "-0.1,0.5"], "expected overheads in [0, 1], got '-0.1,0.5'"),
    ])
    def test_value_gets_its_own_error(self, argv, message, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err


def test_readme_quick_start_commands_run(handled, tmp_path, monkeypatch):
    # every bisac line of "Quick start (CLI)" parses and reaches its handler
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme[readme.index("## Quick start (CLI)"):]
    start = section.index("```sh") + len("```sh")
    block = section[start:section.index("```", start)].replace("\\\n", " ")
    commands = [shlex.split(line) for line in block.splitlines() if line.startswith("bisac ")]
    monkeypatch.chdir(tmp_path)
    assert [main(argv[1:]) for argv in commands] == [0] * len(commands)
    assert commands and [name for name, _, _ in handled] == [argv[1] for argv in commands]


CELLS_CONFIG = {"pattern": {"cells": [[0, 0], [3, 7], [10, 20], [40, 11]]}}


class TestCrbCommand:
    @pytest.mark.parametrize("command, flag", [
        ("crb", "--np"), ("crb", "--mp"), ("sweep", "--np"), ("simulate", "--mp"),
    ])
    def test_single_stride_flag_on_a_cell_list_is_a_usage_error(self, command, flag,
                                                                tmp_path, capsys):
        cfg_file = tmp_path / "cells.json"
        cfg_file.write_text(json.dumps(CELLS_CONFIG))
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(cfg_file), flag, "3", "--out", str(out)])
        assert exc.value.code == 2
        assert "--np and --mp" in capsys.readouterr().err.splitlines()[-1]
        assert sorted(tmp_path.iterdir()) == [cfg_file]

    @pytest.mark.parametrize("pattern, flags, strides", [
        (CELLS_CONFIG["pattern"], ["--np", "3", "--mp", "2"], (3, 2)),
        ({"periodic": [10, 5]}, ["--np", "2"], (2, 5)),
    ], ids=["both-flags-on-cells", "one-flag-on-periodic"])
    def test_stride_flags_set_the_pattern(self, pattern, flags, strides, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"pattern": pattern}))
        out = tmp_path / "crb.json"
        assert main(["crb", "--config", str(cfg_file), *flags, "--beta-deg", "0",
                     "--out", str(out)]) == 0
        expected = crb(SensingChannelParams.from_snr_db(20.0), make_periodic(70, 50, *strides),
                       OfdmNumerology(), beta=0.0)
        assert json.loads(out.read_text()) == dict(expected.to_json_dict(), snr_db=20.0,
                                                   beta_rad=0.0)

    def test_config_out_is_the_output_path(self, tmp_path, capsys):
        out = tmp_path / "from_config.json"
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"out": str(out)}))
        assert main(["crb", "--config", str(cfg_file)]) == 0
        assert capsys.readouterr().out == ""
        assert "sqrt_crb_ran_m" in json.loads(out.read_text())

    def test_matches_library_at_box_center(self, tmp_path):
        out = tmp_path / "crb.json"
        rc = main(["crb", "--np", "2", "--mp", "5", "--snr-db", "5", "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        beta = derive_ground_truth(ScenarioEnsemble().center_scenario()).beta
        expected = crb(
            SensingChannelParams.from_snr_db(5.0),
            make_periodic(70, 50, 2, 5),
            OfdmNumerology(),
            beta=beta,
        )
        assert payload["sqrt_crb_ran_m"] == pytest.approx(
            expected.rmse_bound_ran_m, rel=1e-12
        )
        assert payload["sqrt_crb_vel_ms"] == pytest.approx(
            expected.rmse_bound_vel_ms, rel=1e-12
        )
        assert payload["beta_rad"] == pytest.approx(beta, rel=1e-12)

    def test_explicit_beta(self, tmp_path):
        out = tmp_path / "crb.json"
        main(["crb", "--np", "2", "--mp", "5", "--snr-db", "5",
              "--beta-deg", "0", "--out", str(out)])
        payload = json.loads(out.read_text())
        assert payload["beta_rad"] == 0.0


class TestRatesCommand:
    def test_default_values(self, capsys):
        rc = main(["rates"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "rho,rate_bps"
        values = {float(r.split(",")[0]): float(r.split(",")[1]) for r in lines[1:]}
        assert values[1.0] == 0.0
        assert values[0.02] == pytest.approx(23.523e6, abs=1e3)


class TestTable1Command:
    def test_csv_shape(self, tmp_path):
        out = tmp_path / "table.csv"
        rc = main(["table1", "--draws", "2000", "--seed", "3", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "n_p,m_p,pilot_count,sqrt_crb_ran_m,ecrb_vel_ms"
        assert len(lines) == 5

    def test_draws_flag_is_the_config_field(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"ecrb_draws": 500}))
        texts = []
        for args in (["--draws", "500"], ["--config", str(config)],
                     ["--config", str(config), "--draws", "500"]):
            out = tmp_path / "table.csv"
            assert main(["table1", *args, "--out", str(out)]) == 0
            texts.append(out.read_text())
        assert texts[0] == texts[1] == texts[2]


class TestSweepCommand:
    def test_writes_csv_and_manifest(self, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = main([
            "sweep", "--np", "2", "--mp", "1", "--snr-db", "20",
            "--trials", "2", "--fft", "256", "--seed", "5", "--out", str(out),
        ])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("snr_db,")
        assert len(lines) == 2
        manifest = json.loads((tmp_path / "sweep.csv.manifest.json").read_text())
        assert manifest["config"]["seed"] == 5
        assert manifest["config"]["fft"]["fft_n"] == 256

    def test_flags_override_config_file(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({
            "pattern": {"periodic": [10, 5]},
            "snr_grid_db": [0.0],
            "trials_per_point": 2,
            "fft": {"fft_n": 256, "fft_m": 256},
            "seed": 1,
        }))
        out = tmp_path / "s.csv"
        main(["sweep", "--config", str(cfg_file), "--np", "2", "--mp", "1",
              "--seed", "9", "--out", str(out)])
        manifest = json.loads((tmp_path / "s.csv.manifest.json").read_text())
        assert manifest["config"]["pattern"]["periodic"] == [2, 1]
        assert manifest["config"]["seed"] == 9
        assert manifest["config"]["trials_per_point"] == 2

    def test_profile_flag(self, tmp_path):
        out = tmp_path / "p.csv"
        main(["sweep", "--profile", "desk", "--np", "2", "--mp", "1",
              "--snr-db", "20", "--trials", "1", "--seed", "2", "--out", str(out)])
        manifest = json.loads((tmp_path / "p.csv.manifest.json").read_text())
        assert manifest["config"]["fft"]["fft_n"] == 1024
        assert manifest["config"]["trials_per_point"] == 1  # explicit flag wins


class TestSimulateCommand:
    def test_json_and_surface_dump(self, tmp_path):
        out = tmp_path / "trial.json"
        surf = tmp_path / "surface.bin"
        rc = main([
            "simulate", "--np", "2", "--mp", "1", "--snr-db", "20",
            "--fft", "256", "--seed", "11",
            "--dump-surface", str(surf), "--out", str(out),
        ])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["valid"] is True
        est, truth = payload["estimate"], payload["truth"]
        assert est["d_bis_hat_m"] == pytest.approx(truth["d_bis_m"], abs=1.0)
        surface = read_grid(surf)
        assert surface.shape == (256, 256)
        assert np.all(surface.imag == 0.0)
        peak_power = surface.real.max()
        assert est["peak_power"] == pytest.approx(peak_power, rel=1e-12)
        assert est["refine_fallback"] is False

    def test_surface_smaller_than_the_pilot_grid_is_a_usage_error(self, tmp_path, monkeypatch,
                                                                 capsys):
        # the estimate runs at any FFT size; only the surface needs sizes that
        # cover the 35 x 50 pilot grid, checked before the trial, and nothing
        # is written without it
        def no_trial(*a):
            raise AssertionError("trial started")

        monkeypatch.setattr(bisac.harness, "_trial_block", no_trial)
        out, surf = tmp_path / "trial.json", tmp_path / "surface.bin"
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--fft", "16", "--dump-surface", str(surf), "--out", str(out)])
        assert exc.value.code == 2
        assert ("FFT sizes (16, 16) smaller than the pilot grid (35, 50)"
                in capsys.readouterr().err.splitlines()[-1])
        assert not out.exists() and not surf.exists()

    def test_surface_beyond_the_cap_is_a_usage_error(self, tmp_path, monkeypatch, capsys):
        # fft 2^40 would ask numpy for an 800 TiB surface; the refusal comes
        # before the trial, and nothing is written
        def no_trial(*a):
            raise AssertionError("trial started")

        monkeypatch.setattr(bisac.harness, "_trial_block", no_trial)
        out, surf = tmp_path / "trial.json", tmp_path / "surface.bin"
        for fft in ("16384", "1099511627776"):
            with pytest.raises(SystemExit) as exc:
                main(["simulate", "--fft", fft, "--dump-surface", str(surf), "--out", str(out)])
            assert exc.value.code == 2
            assert (f"--dump-surface: a {fft} x {fft} surface has more than 67108864 cells"
                    in capsys.readouterr().err.splitlines()[-1])
        assert not out.exists() and not surf.exists()

    def test_surface_at_the_cap_is_dumped(self, tmp_path, monkeypatch):
        # the full profile's surface is within the cap; a surface of the cap's
        # size is dumped and the next power of two refused (cap made small here)
        assert (4096 * 4096 <= bisac.cli._MAX_SURFACE_CELLS
                and bisac.cli._PROFILES["full"]["fft"] == 4096)
        monkeypatch.setattr(bisac.cli, "_MAX_SURFACE_CELLS", 256 * 128)
        path, surf = tmp_path / "config.json", tmp_path / "surface.bin"
        for fft_m, refused in ((128, False), (256, True)):
            config = ExperimentConfig(fft=PeriodogramConfig(256, fft_m))
            path.write_text(json.dumps(config.to_json_dict()))
            argv = ["simulate", "--config", str(path), "--dump-surface", str(surf),
                    "--out", str(tmp_path / "trial.json")]
            if refused:
                with pytest.raises(SystemExit):
                    main(argv)
            else:
                assert main(argv) == 0
                assert read_grid(surf).shape == (256, 128)

    def test_degenerate_draw_reports_its_error_with_no_truth(self, tmp_path):
        # the point-mass box on the transmitter: every target draw is degenerate
        config = ExperimentConfig(
            ensemble=ScenarioEnsemble(x_range=(-40.0, -40.0), y_range=(0.0, 0.0)))
        path, out = tmp_path / "config.json", tmp_path / "trial.json"
        path.write_text(json.dumps(config.to_json_dict()))
        assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["truth"] is None and payload["estimate"] is None
        assert payload["valid"] is False
        assert payload["error"].startswith("degenerate geometry")

    def test_trial_flag_runs_that_trial_of_the_sweep(self, tmp_path):
        config = ExperimentConfig(
            pattern=make_periodic(70, 50, 2, 5), snr_grid_db=(0.0, 20.0, 30.0),
            trials_per_point=10, fft=PeriodogramConfig(64, 64), seed=4,
        )
        path, out = tmp_path / "config.json", tmp_path / "trial.json"
        path.write_text(json.dumps(config.to_json_dict()))
        assert main(["simulate", "--config", str(path), "--trial", "1,7", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["snr_db"] == 20.0
        truth, grid, outcome = simulate_trial(config, 1, 7)
        # the sweep runs its three SNR points as one block
        in_sweep = block_trials(config, [(0, 0, 10), (1, 0, 10), (2, 0, 10)])[10 + 7]
        assert in_sweep[0] == truth
        assert np.array_equal(in_sweep[1].view(np.uint64), grid.view(np.uint64))
        assert vars(in_sweep[2]) == vars(outcome)
        assert payload["truth"]["d_bis_m"] == truth.d_bis
        assert payload["estimate"] == json.loads(json.dumps(outcome.to_json_dict()))

    def test_default_trial_is_trial_0_0(self, tmp_path):
        outs = [tmp_path / "default.json", tmp_path / "named.json"]
        for out, extra in zip(outs, ([], ["--trial", "0,0"])):
            main(["simulate", "--np", "2", "--mp", "5", "--fft", "64", "--seed", "3",
                  "--out", str(out), *extra])
        assert outs[0].read_bytes() == outs[1].read_bytes()

    @pytest.mark.parametrize("value, name", [
        ("1,0", "snr_idx must be < 1"), ("-1,0", "--trial"), ("0,-1", "--trial"),
        ("0", "--trial"), ("0,1,2", "--trial"), ("a,0", "--trial"), ("0,1.5", "--trial"),
    ])
    def test_bad_trial_is_a_usage_error(self, value, name, monkeypatch, capsys):
        def no_trial(*args):
            raise AssertionError("trial started")

        monkeypatch.setattr(bisac.harness, "_trial_block", no_trial)
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--fft", "64", "--trial", value])
        assert exc.value.code == 2
        assert name in capsys.readouterr().err

    def test_is_first_trial_of_matching_sweep(self, tmp_path):
        out = tmp_path / "trial.json"
        main(["simulate", "--np", "2", "--mp", "1", "--snr-db", "20",
              "--fft", "256", "--seed", "11", "--out", str(out)])
        payload = json.loads(out.read_text())
        cfg = ExperimentConfig(
            pattern=make_periodic(70, 50, 2, 1), snr_grid_db=(20.0,),
            trials_per_point=1, fft=PeriodogramConfig(256, 256), seed=11,
            ecrb_draws=1,
        )
        row = run_sweep(cfg).rows[0]
        err_d = payload["estimate"]["d_bis_hat_m"] - payload["truth"]["d_bis_m"]
        assert row.rmse_range_m == pytest.approx(abs(err_d), rel=1e-15)
