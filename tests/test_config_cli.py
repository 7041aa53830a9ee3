import io
import json
import math
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qracsim.cli import SWEEP_HEADER, _sweep_json, main
from qracsim.config import (
    BandConfig,
    ConfigError,
    RunConfig,
    config_from_mapping,
    config_to_mapping,
    load_config,
    parse_config_text,
)
from qracsim.photonics import PROTOCOLS, ChannelModel, DetectorModel, DliModel, SourceModel


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

    def test_mirror_with_repetition_period_loads(self, tmp_path):
        # mirrors written while SourceModel carried rep_period_ns still load;
        # the key is parsed, then dropped
        mapping = config_to_mapping(RunConfig(seed=5))
        mirror = tmp_path / "old.json"
        mirror.write_text(json.dumps({"config": {**mapping, "source.rep_period_ns": "1.6"}}))
        assert config_to_mapping(load_config(str(mirror))) == mapping
        with pytest.raises(ConfigError, match="source.rep_period_ns"):
            config_from_mapping({"source.rep_period_ns": "slow"})

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

    def test_delay_mismatch_names_key_and_exits_2(self, tmp_path):
        cfg = tmp_path / "dli.cfg"
        cfg.write_text("dli.delay_ps = 700\n")
        code, out, err = run_cli(["sweep", "--config", str(cfg), "--power", "-30", "--rounds", "1000"])
        assert code == 2
        assert out == ""
        assert "dli.delay_ps must equal the bin spacing (800 ps), got 700" in err

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


# config_to_mapping(RunConfig()): the JSON mirror's config object at the defaults
DEFAULT_MAPPING = {
    "run.protocol": "2,2",
    "run.rounds": "200000",
    "run.seed": "1",
    "run.workers": "1",
    "run.sweep": "",
    "run.format": "csv",
    "source.mu": "0.2",
    "channel.loss_db": "10.0",
    "channel.raman_coefficient": "325880067373.3531",
    "channel.classical_power_dbm": "none",
    "detector.efficiency": "0.2",
    "detector.dark_rate_hz": "2500.0",
    "detector.jitter_fwhm_ps": "200.0",
    "detector.gate_width_ps": "800.0",
    "dli.delay_ps": "800.0",
    "dli.visibility": "0.9",
    "band.p_z_reference": "0.8536",
    "band.p_z_tolerance": "0.005",
    "band.p_x_low": "0.79",
    "band.p_x_high": "0.86",
    "band.quart_tolerance": "0.005",
    "band.crossing_dbm": "-25.0",
    "band.crossing_tolerance_dbm": "1.0",
}


class TestConfigMirror:
    def test_default_mapping_is_pinned(self):
        assert config_to_mapping(RunConfig()) == DEFAULT_MAPPING

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        config=st.builds(
            RunConfig,
            protocol=st.sampled_from(PROTOCOLS),
            rounds=st.integers(1, 2**63),
            seed=st.integers(0, 2**128),
            workers=st.integers(1, 64),
            sweep=st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=4),
            fmt=st.sampled_from(("csv", "json")),
            source=st.builds(SourceModel, mu=st.floats(0.0, exclude_min=True, allow_infinity=False)),
            channel=st.builds(
                ChannelModel,
                loss_db=st.floats(0.0, allow_infinity=False),
                raman_coefficient=st.floats(0.0, allow_infinity=False),
                classical_power_dbm=st.none()
                | st.just(-math.inf)
                | st.floats(allow_nan=False, allow_infinity=False),
            ),
            detector=st.builds(
                DetectorModel,
                efficiency=st.floats(0.0, 1.0, exclude_min=True),
                dark_rate_hz=st.floats(0.0, allow_infinity=False),
                jitter_fwhm_ps=st.floats(0.0, allow_infinity=False),
                gate_width_ps=st.floats(0.0, allow_infinity=False),
            ),
            dli=st.builds(
                DliModel,
                delay_ps=st.floats(0.0, exclude_min=True, allow_infinity=False),
                visibility=st.floats(0.0, 1.0),
            ),
            bands=st.builds(
                BandConfig,
                **{f.name: st.floats(allow_nan=False, allow_infinity=False) for f in fields(BandConfig)},
            ),
        )
    )
    def test_mapping_round_trips_every_field(self, config):
        mapping = config_to_mapping(config)
        again = config_from_mapping(mapping)
        assert again == config
        assert config_to_mapping(again) == mapping  # also tells -0.0 from 0.0


class TestConfigErrors:
    @pytest.mark.parametrize(
        "key, value",
        [
            ("source.mu", "nan"),
            ("source.mu", "inf"),
            ("channel.loss_db", "nan"),
            ("channel.raman_coefficient", "nan"),
            ("channel.classical_power_dbm", "inf"),
            ("channel.classical_power_dbm", "nan"),
            ("detector.efficiency", "0"),
            ("detector.dark_rate_hz", "nan"),
            ("detector.jitter_fwhm_ps", "-1"),
            ("detector.gate_width_ps", "inf"),
            ("dli.delay_ps", "nan"),
            ("dli.visibility", "1.5"),
        ],
    )
    def test_model_error_names_key_and_exits_2(self, tmp_path, key, value):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"{key} = {value}\n")
        code, out, err = run_cli(["sweep", "--config", str(cfg), "--power", "-30", "--rounds", "1000"])
        assert code == 2
        assert out == ""
        assert f"{key} must be" in err and f"got {float(value)}" in err

    def test_negative_seed_names_key_and_exits_2(self):
        code, out, err = run_cli(["sweep", "--seed", "-1", "--power", "-30", "--rounds", "1000"])
        assert code == 2
        assert out == ""
        assert "run.seed" in err

    @pytest.mark.parametrize("attr", ["rounds", "seed", "workers"])
    def test_run_integers_are_read_with_index(self, attr):
        with pytest.raises(TypeError):
            RunConfig(**{attr: 2.5})
        assert getattr(config_from_mapping({f"run.{attr}": "7"}), attr) == 7

    def test_json_null_is_the_empty_value(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        mirror = tmp_path / "null.json"
        mirror.write_text(json.dumps({"config": {"run.out": None, "channel.classical_power_dbm": None}}))
        code, out, err = run_cli(["sweep", "--config", str(mirror), "--power", "-30", "--rounds", "1000"])
        assert code == 0, err
        assert out.splitlines()[0] == SWEEP_HEADER  # run.out empty: stdout
        assert sorted(p.name for p in tmp_path.iterdir()) == ["null.json"]
        assert load_config(str(mirror)).channel.classical_power_dbm is None
        mirror.write_text(json.dumps({"config": {"source.mu": None}}))
        with pytest.raises(ConfigError, match="expected a number, got ''.*source.mu"):
            load_config(str(mirror))

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "key",
        [
            "band.p_z_reference",
            "band.p_z_tolerance",
            "band.p_x_low",
            "band.p_x_high",
            "band.quart_tolerance",
            "band.crossing_dbm",
            "band.crossing_tolerance_dbm",
        ],
    )
    def test_band_must_be_finite(self, tmp_path, key, value):
        cfg = tmp_path / "band.cfg"
        cfg.write_text(f"{key} = {value}\n")
        code, out, err = run_cli(["reproduce", "fig4", "--config", str(cfg), "--power", "-30"])
        assert code == 2
        assert out == ""
        assert f"{key} must be finite, got {float(value)}" in err


class TestInconclusiveEstimates:
    """An estimate with no conclusive rounds is NaN; none may be written."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--protocol", "2,2", "--power", "-30"],
            ["sweep", "--protocol", "2,4", "--power", "-30"],
            ["sweep", "--protocol", "2,4", "--power", "-30", "--format", "json"],
            ["reproduce", "table2"],
            ["reproduce", "table4"],
            ["reproduce", "fig4", "--power", "-30"],
            ["reproduce", "fig5", "--power", "-30"],
        ],
        ids=["sweep-2,2", "sweep-2,4", "sweep-json", "table2", "table4", "fig4", "fig5"],
    )
    @pytest.mark.parametrize("out", [False, True], ids=["stdout", "out"])
    def test_one_round_exits_2_and_writes_nothing(self, tmp_path, argv, out):
        # one round is conclusive for one arm and one message at most
        target = tmp_path / "result.csv"
        code, stdout, err = run_cli(argv + ["--rounds", "1"] + (["--out", str(target)] if out else []))
        assert code == 2
        assert stdout == ""
        assert "no conclusive rounds" in err and "run.rounds" in err
        assert list(tmp_path.iterdir()) == []

    def test_json_mirror_refuses_nan(self):
        with pytest.raises(ValueError):
            _sweep_json(RunConfig(), [{"phi": math.nan}])
