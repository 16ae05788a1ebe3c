import json

import numpy as np
import pytest

import bisac.cli
from bisac import (
    OfdmNumerology,
    ScenarioEnsemble,
    SensingChannelParams,
    crb,
    derive_ground_truth,
    make_periodic,
    read_grid,
)
from bisac.cli import _parse_snr_grid, main

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
        ("crb", "--trials"), ("crb", "--workers"), ("crb", "--fft"),
        ("crb", "--np"), ("crb", "--mp"), ("table1", "--draws"),
    ])
    @pytest.mark.parametrize("value", ["0", "-3", "two"])
    def test_count_flags_need_positive_integers(self, command, flag, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, flag, value])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err


class TestCrbCommand:
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
