import io
import json

import pytest

from qracsim.cli import SWEEP_HEADER, main
from qracsim.config import (
    ConfigError,
    RunConfig,
    config_from_mapping,
    config_to_mapping,
    load_config,
    parse_config_text,
)


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(argv, stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


class TestConfigParsing:
    def test_flat_grammar(self):
        text = """
        # device overrides
        detector.dark_rate_hz = 1000
        run.seed = 9
        run.sweep = -40, -30,-25
        """
        mapping = parse_config_text(text)
        cfg = config_from_mapping(mapping)
        assert cfg.detector.dark_rate_hz == 1000.0
        assert cfg.seed == 9
        assert cfg.sweep == (-40.0, -30.0, -25.0)

    def test_missing_equals_diagnosed(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config_text("run.seed = 1\nbogus line\n")

    def test_duplicate_key_diagnosed(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("run.seed = 1\nrun.seed = 2\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown configuration key"):
            config_from_mapping({"run.bogus": "1"})

    def test_bad_number_diagnosed(self):
        with pytest.raises(ConfigError, match="expected a number"):
            config_from_mapping({"detector.efficiency": "fast"})

    def test_mapping_round_trip(self):
        cfg = RunConfig(seed=77, rounds=1234, sweep=(-33.5, -21.25))
        again = config_from_mapping(config_to_mapping(cfg))
        assert config_to_mapping(again) == config_to_mapping(cfg)

    def test_classical_power_off_values(self):
        cfg = config_from_mapping({"channel.classical_power_dbm": "none"})
        assert cfg.channel.classical_power_dbm is None
        cfg = config_from_mapping({"channel.classical_power_dbm": "-30.5"})
        assert cfg.channel.classical_power_dbm == -30.5

    def test_load_flat_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("run.rounds = 5000\ndli.visibility = 0.85\n")
        cfg = load_config(str(path))
        assert cfg.rounds == 5000
        assert cfg.dli.visibility == 0.85


class TestBoundsCommand:
    def test_qubit_output(self):
        code, out, _ = run_cli(["bounds", "--d", "2"])
        assert code == 0
        assert out.strip() == "rac=0.75 qrac=0.853553 advantage=0.207107"

    def test_ququart_output(self):
        code, out, _ = run_cli(["bounds", "--d", "4"])
        assert code == 0
        assert out.strip() == "rac=0.625 qrac=0.75 advantage=0.25"

    def test_invalid_alphabet(self):
        code, _, err = run_cli(["bounds", "--d", "1"])
        assert code == 2
        assert "2..16" in err


class TestReproduceEncodings:
    def test_table1_values(self):
        code, out, _ = run_cli(["reproduce", "table1"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "message,component_0,component_1"
        assert lines[1] == "00,0.923880,0.382683"
        assert lines[2] == "01,0.923880,-0.382683"
        assert lines[3] == "10,0.382683,0.923880"
        assert lines[4] == "11,0.382683,-0.923880"

    def test_table3_values(self):
        code, out, _ = run_cli(["reproduce", "table3"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[1].startswith("00,0.866025,0.288675,0.288675,0.288675")
        assert lines[4].startswith("30,0.288675,0.288675,0.288675,0.866025")


class TestSweepCommand:
    def test_empty_sweep_writes_header_only(self, tmp_path):
        out_path = tmp_path / "empty.csv"
        code, _, _ = run_cli(["sweep", "--out", str(out_path)])
        assert code == 0
        assert out_path.read_text() == SWEEP_HEADER + "\n"

    def test_header_is_stable(self):
        code, out, _ = run_cli(
            ["sweep", "--power", "-40", "--rounds", "2000", "--seed", "1"]
        )
        assert code == 0
        assert out.splitlines()[0] == SWEEP_HEADER

    def test_reruns_are_byte_identical(self, tmp_path):
        args = ["sweep", "--power", "-30", "--power", "-25", "--rounds", "20000", "--seed", "11"]
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        assert run_cli(args + ["--out", str(first)])[0] == 0
        assert run_cli(args + ["--out", str(second)])[0] == 0
        assert first.read_bytes() == second.read_bytes()
        assert first.with_suffix(".json").read_bytes() == second.with_suffix(".json").read_bytes()

    def test_json_mirror_round_trip(self, tmp_path):
        out_path = tmp_path / "run.csv"
        args = ["sweep", "--power", "-28", "--rounds", "15000", "--seed", "21", "--out", str(out_path)]
        assert run_cli(args)[0] == 0
        mirror = out_path.with_suffix(".json")
        rerun = tmp_path / "rerun.csv"
        code, _, _ = run_cli(["sweep", "--config", str(mirror), "--out", str(rerun)])
        assert code == 0
        assert rerun.read_bytes() == out_path.read_bytes()

    def test_json_stdout_format(self):
        code, out, _ = run_cli(
            ["sweep", "--power", "-35", "--rounds", "2000", "--seed", "2", "--format", "json"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["meta"]["seed"] == 2
        assert payload["rows"][0]["power_dbm"] == -35.0
        assert set(payload["config"]) >= {"run.protocol", "detector.dark_rate_hz"}

    def test_ququart_rows_have_phi_and_extras(self):
        code, out, _ = run_cli(
            [
                "sweep",
                "--protocol",
                "2,4",
                "--power",
                "-40",
                "--rounds",
                "40000",
                "--seed",
                "6",
                "--format",
                "json",
            ]
        )
        assert code == 0
        row = json.loads(out)["rows"][0]
        assert row["p_x"] is None
        assert row["phi"] is not None  # all three advantages positive far from threshold
        assert row["advantage_m1"] > 0

    def test_malformed_config_exits_2(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("detector.efficiency = brown\n")
        code, _, err = run_cli(["sweep", "--config", str(bad)])
        assert code == 2
        assert "expected a number" in err

    def test_unclickable_receiver_exits_2(self, tmp_path):
        cfg = tmp_path / "dark.cfg"
        cfg.write_text("channel.loss_db = 4000\ndetector.dark_rate_hz = 0\n")
        code, out, err = run_cli(["reproduce", "table2", "--config", str(cfg), "--rounds", "1000"])
        assert code == 2
        assert out == ""
        assert "channel.loss_db" in err and "detector.dark_rate_hz" in err

    def test_missing_config_file_exits_2(self):
        code, _, err = run_cli(["sweep", "--config", "/nonexistent/q.cfg"])
        assert code == 2
        assert "cannot read" in err


class TestReproduceMonteCarlo:
    def test_table2_within_default_bands(self, tmp_path):
        out_path = tmp_path / "t2.csv"
        code, _, err = run_cli(
            ["reproduce", "table2", "--rounds", "400000", "--seed", "3", "--out", str(out_path)]
        )
        assert code == 0, err
        lines = out_path.read_text().strip().splitlines()
        assert lines[0].startswith("state,p_z,p_z_ref,p_z_dev")
        assert len(lines) == 5

    def test_table4_within_default_bands(self, tmp_path):
        out_path = tmp_path / "t4.csv"
        code, _, err = run_cli(
            ["reproduce", "table4", "--rounds", "400000", "--seed", "3", "--out", str(out_path)]
        )
        assert code == 0, err
        lines = out_path.read_text().strip().splitlines()
        assert [l.split(",")[0] for l in lines[1:]] == ["M1", "M2", "M12"]

    def test_impossible_band_exits_3(self, tmp_path):
        cfg = tmp_path / "strict.cfg"
        cfg.write_text("band.p_z_tolerance = 0.000001\n")
        code, _, err = run_cli(
            ["reproduce", "table2", "--rounds", "50000", "--seed", "3", "--config", str(cfg),
             "--out", str(tmp_path / "t.csv")]
        )
        assert code == 3
        assert "acceptance band failed" in err
        assert (tmp_path / "t.csv").exists()  # files written even on band failure

    def test_fig4_small_sweep(self, tmp_path):
        out_path = tmp_path / "f4.csv"
        code, _, err = run_cli(
            [
                "reproduce", "fig4",
                "--power", "-30", "--power", "-26", "--power", "-25", "--power", "-24",
                "--rounds", "150000", "--seed", "12", "--out", str(out_path),
            ]
        )
        assert code == 0, err
        lines = out_path.read_text().strip().splitlines()
        assert lines[0] == SWEEP_HEADER
        assert len(lines) == 5

    def test_fig4_crossing_band_failure_exits_3(self, tmp_path):
        cfg = tmp_path / "shifted.cfg"
        cfg.write_text("band.crossing_dbm = -35\nband.crossing_tolerance_dbm = 0.5\n")
        code, _, err = run_cli(
            [
                "reproduce", "fig4", "--config", str(cfg),
                "--power", "-27", "--power", "-25", "--power", "-23",
                "--rounds", "80000", "--seed", "9", "--out", str(tmp_path / "f.csv"),
            ]
        )
        assert code == 3
        assert "crossing" in err
        assert (tmp_path / "f.csv").exists()

    def test_fig5_phi_column_domain(self, tmp_path):
        out_path = tmp_path / "f5.csv"
        code, _, _ = run_cli(
            [
                "reproduce", "fig5",
                "--power", "-40", "--power", "-20", "--power", "-15",
                "--rounds", "80000", "--seed", "12", "--out", str(out_path),
            ]
        )
        assert code == 0
        rows = out_path.read_text().strip().splitlines()[1:]
        quiet = rows[0].split(",")
        loud = rows[-1].split(",")
        assert quiet[-1] != ""   # phi defined while all advantages positive
        assert loud[-1] == ""    # deep in the noise every advantage is floored
