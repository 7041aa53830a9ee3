import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qracsim
from qracsim.cli import SWEEP_HEADER, TARGETS, _crossing_power, _sweep_json, main
from qracsim.config import (
    ConfigError,
    RunConfig,
    config_from_mapping,
    config_to_mapping,
    load_config,
    parse_config_text,
)
from qracsim.photonics import (
    PROTOCOLS,
    ChannelModel,
    DetectorModel,
    DliModel,
    SimulationConfig,
    SourceModel,
    simulate_trial,
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

    def test_mirror_with_repetition_period_rejected(self, tmp_path):
        # no model reads a repetition period, so the key is unknown like any other
        mapping = config_to_mapping(RunConfig(seed=5))
        mirror = tmp_path / "old.json"
        mirror.write_text(json.dumps({"config": {**mapping, "source.rep_period_ns": "1.6"}}))
        with pytest.raises(ConfigError, match=re.escape("unknown configuration key [key 'source.rep_period_ns']")):
            load_config(str(mirror))

    @pytest.mark.parametrize(
        "text, message",
        [
            ("run.rounds = 1.5\n", "expected an integer, got '1.5'"),
            (" = 5\n", "empty key"),
            ('{"run.rounds": }', "invalid JSON config"),
            ('{"config": [1]}', "JSON config must be an object of key-value pairs"),
        ],
        ids=["non-integer", "empty-key", "malformed-json", "non-object-json"],
    )
    def test_malformed_file_diagnosed(self, tmp_path, text, message):
        path = tmp_path / "bad.cfg"
        path.write_text(text)
        with pytest.raises(ConfigError, match=re.escape(message)):
            load_config(str(path))

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
        # a saturated phase arm is blamed on the noise, not on run.rounds
        code, out, err = run_cli(["sweep", "--power", "40", "--rounds", "200000"])
        assert code == 2
        assert out == ""
        assert "detector.dark_rate_hz or channel.classical_power_dbm" in err and "run.rounds" not in err

    def test_nearly_saturated_phase_arm_blames_noise(self):
        # at 30 dBm the interfering slot is reached with probability about
        # 1e-57: p_x has a closed form, but no trial of at most 2**63 - 1
        # rounds expects a conclusive round, so more rounds cannot help
        code, out, err = run_cli(["sweep", "--power", "30", "--rounds", "1000"])
        assert code == 2
        assert out == ""
        assert "p_x can never be conclusive (conclusive probability 1.22e-57 per round)" in err
        assert "detector.dark_rate_hz or channel.classical_power_dbm" in err and "run.rounds" not in err

    def test_delay_mismatch_names_key_and_exits_2(self, tmp_path):
        # the interferometer delay is the bin spacing, so no key sets it
        cfg = tmp_path / "dli.cfg"
        cfg.write_text("dli.delay_ps = 700\n")
        code, out, err = run_cli(["sweep", "--config", str(cfg), "--power", "-30", "--rounds", "1000"])
        assert code == 2
        assert out == ""
        assert "unknown configuration key [line 1, key 'dli.delay_ps']" in err

    def test_delay_mismatch_checked_without_phase_arm(self, tmp_path):
        # a 2,4 mirror written while the cell width and the delay were keys
        mirror = tmp_path / "old.json"
        for key in ("detector.gate_width_ps", "dli.delay_ps"):
            mirror.write_text(json.dumps({"config": {**DEFAULT_MAPPING, "run.protocol": "2,4", key: "800.0"}}))
            code, out, err = run_cli(["sweep", "--config", str(mirror), "--power", "-30", "--rounds", "1000"])
            assert code == 2
            assert out == ""
            assert f"unknown configuration key [key '{key}']" in err

    def test_power_past_float_range_exits_2(self):
        code, out, err = run_cli(["sweep", "--power", "3200", "--rounds", "1000"])
        assert code == 2
        assert out == ""
        assert "p_x can never be conclusive" in err and "channel.classical_power_dbm" in err

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
        # the bands are fixed, so only the devices can move an estimate out of one
        cfg = tmp_path / "poor.cfg"
        cfg.write_text("dli.visibility = 0.5\n")
        code, _, err = run_cli(
            ["reproduce", "table2", "--rounds", "50000", "--seed", "3", "--config", str(cfg),
             "--out", str(tmp_path / "t.csv")]
        )
        assert code == 3
        assert "acceptance band failed: p_z=" in err
        assert (tmp_path / "t.csv").exists()  # files written even on band failure
        cfg.write_text("detector.jitter_fwhm_ps = 2000\n")
        code, _, err = run_cli(
            ["reproduce", "table4", "--rounds", "50000", "--seed", "3", "--config", str(cfg),
             "--out", str(tmp_path / "t4.csv")]
        )
        assert code == 3
        assert "acceptance band failed: deviations from ideal" in err
        assert (tmp_path / "t4.csv").exists()

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
        # ten times the calibrated noise moves the crossing to about -35 dBm
        cfg = tmp_path / "shifted.cfg"
        cfg.write_text("channel.raman_coefficient = 3e12\n")
        code, _, err = run_cli(
            [
                "reproduce", "fig4", "--config", str(cfg),
                "--power", "-37", "--power", "-33", "--power", "-29",
                "--rounds", "80000", "--seed", "9", "--out", str(tmp_path / "f.csv"),
            ]
        )
        assert code == 3
        assert re.fullmatch(
            r"acceptance band failed: classical-bound crossing at -3[45]\.\d+ dBm, expected -25 \+/- 1\n", err
        )
        assert (tmp_path / "f.csv").exists()

    def test_fig4_without_crossing_names_the_swept_powers(self, tmp_path):
        out_path = tmp_path / "f.csv"
        code, _, err = run_cli(["reproduce", "fig4", "--power", "-40", "--power", "-39", "--out", str(out_path)])
        assert code == 3
        assert err == "acceptance band failed: p_z never falls to 0.75 between -40 and -39 dBm, expected -25 +/- 1\n"
        assert out_path.exists()

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
    "channel.raman_coefficient": "325879974610.5981",
    "channel.classical_power_dbm": "none",
    "detector.efficiency": "0.2",
    "detector.dark_rate_hz": "2500.0",
    "detector.jitter_fwhm_ps": "200.0",
    "dli.visibility": "0.9",
}
# the acceptance bands, which were configuration keys until they became fixed
RETIRED_BAND_KEYS = {
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
            rounds=st.integers(1, 2**63 - 1),
            seed=st.integers(0, 2**128),
            workers=st.integers(1, 64),
            sweep=st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=4),
            format=st.sampled_from(("csv", "json")),
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
            ),
            dli=st.builds(DliModel, visibility=st.floats(0.0, 1.0)),
        )
    )
    def test_mapping_round_trips_every_field(self, config):
        mapping = config_to_mapping(config)
        again = config_from_mapping(mapping)
        assert again == config
        assert config_to_mapping(again) == mapping  # also tells -0.0 from 0.0

    def test_new_model_field_is_a_key(self):
        # the schema is read off the dataclasses when qracsim.config is imported
        code = (
            "import dataclasses, qracsim.photonics as ph\n"
            "ph.ChannelModel = dataclasses.make_dataclass(\n"
            "    'ChannelModel', [('length_km', float, 50.0)], bases=(ph.ChannelModel,), frozen=True)\n"
            "from qracsim.config import config_from_mapping, config_to_mapping\n"
            "mapping = config_to_mapping(config_from_mapping({'channel.length_km': '80'}))\n"
            "print(mapping['channel.length_km'], config_to_mapping(config_from_mapping(mapping)) == mapping)\n"
        )
        proc = _run_python("-c", code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "80.0 True\n"


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

    def test_rounds_above_c_long_exit_2(self):
        assert RunConfig(rounds=2**63 - 1).rounds == 2**63 - 1
        with pytest.raises(ValueError, match=f"run.rounds must be at most {2**63 - 1}, got {2**63}$"):
            RunConfig(rounds=2**63)
        code, out, err = run_cli(["sweep", "--rounds", str(2**63), "--power", "-30"])
        assert code == 2
        assert out == ""
        assert "run.rounds must be at most 9223372036854775807, got 9223372036854775808" in err

    def test_unknown_format_names_key_and_exits_2(self, tmp_path):
        cfg = tmp_path / "format.cfg"
        cfg.write_text("run.format = xml\n")
        code, out, err = run_cli(["sweep", "--config", str(cfg)])
        assert code == 2
        assert out == ""
        assert err == "config error: run.format must be csv or json, got 'xml'\n"

    def test_non_finite_power_names_key_and_exits_2(self):
        code, out, err = run_cli(["sweep", "--power", "-30", "--power", "inf"])
        assert code == 2
        assert out == ""
        assert err == "config error: run.sweep must be finite powers, got inf\n"

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

    @pytest.mark.parametrize("key", RETIRED_BAND_KEYS)
    def test_retired_band_key_is_unknown(self, tmp_path, key):
        cfg = tmp_path / "band.cfg"
        cfg.write_text(f"{key} = {RETIRED_BAND_KEYS[key]}\n")
        code, out, err = run_cli(["reproduce", "fig4", "--config", str(cfg), "--power", "-30"])
        assert code == 2
        assert out == ""
        assert err == f"config error: unknown configuration key [line 1, key '{key}']\n"

    def test_mirror_with_band_keys_is_refused(self, tmp_path):
        # a mirror written while the bands were keys echoes all seven, sorted
        mirror = tmp_path / "old.json"
        mirror.write_text(json.dumps({"config": {**DEFAULT_MAPPING, **RETIRED_BAND_KEYS}}, sort_keys=True))
        code, out, err = run_cli(["sweep", "--config", str(mirror), "--power", "-30"])
        assert code == 2
        assert out == ""
        assert err == "config error: unknown configuration key [key 'band.crossing_dbm']\n"


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


@pytest.mark.parametrize(
    "p_z, expected",
    [
        ((0.75, 0.75, 0.7), -40.0),
        ((0.9, 0.85, 0.8, 0.7), -37.5),
        ((0.7, 0.72, 0.76, 0.8), None),
        ((0.8,), None),
        ((), None),
    ],
    ids=["flat-at-threshold", "last-segment", "upward-only", "one-row", "no-rows"],
)
def test_crossing_power(p_z, expected):
    rows = [{"power_dbm": -40.0 + i, "p_z": p} for i, p in enumerate(p_z)]
    crossing = _crossing_power(rows, 0.75)
    assert crossing == (None if expected is None else pytest.approx(expected, abs=1e-12))


@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("power", [None, -25.0], ids=["laser-off", "-25dBm"])
def test_run_config_is_a_trial_config(protocol, power):
    settings_ = dict(
        protocol=protocol, channel=ChannelModel(classical_power_dbm=power), rounds=20_000, seed=3, workers=2
    )
    assert simulate_trial(RunConfig(**settings_)) == simulate_trial(SimulationConfig(**settings_))


def _run_python(*args):
    src = str(Path(qracsim.__file__).parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )


class TestProcessEntryPoint:
    def test_reproduce_table1_matches_main(self):
        proc = _run_python("-m", "qracsim.cli", "reproduce", "table1")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == run_cli(["reproduce", "table1"])[1]

    def test_bad_rounds_exits_2_naming_key(self):
        proc = _run_python("-m", "qracsim.cli", "sweep", "--rounds", "0", "--power", "-30")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "run.rounds" in proc.stderr

    def test_runs_without_test_only_packages(self, tmp_path):
        # numpy is the only runtime dependency: with scipy and hypothesis
        # unimportable, every target and a wide-jitter closed form still run
        code = (
            "import sys\n"
            "sys.modules['scipy'] = sys.modules['hypothesis'] = None\n"
            "import io, qracsim\n"
            "from qracsim.cli import TARGETS, main\n"
            f"out = {str(tmp_path)!r}\n"
            "print([main(['reproduce', t, '--out', f'{out}/{t}.csv'], stdout=io.StringIO()) for t in TARGETS])\n"
            "config = qracsim.SimulationConfig(detector=qracsim.DetectorModel(jitter_fwhm_ps=3000.0))\n"
            "print(round(qracsim.expected_estimates(config)['p_z'], 5))\n"
        )
        proc = _run_python("-c", code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == f"{[0] * len(TARGETS)}\n0.53347\n"

    def test_import_loads_no_numpy_random(self):
        # numpy 1.24 loads numpy.random on `import numpy`; only what the
        # package adds on top counts
        code = (
            "import sys, numpy\n"
            "before = set(sys.modules)\n"
            "import qracsim.cli\n"
            "print(sorted(m for m in set(sys.modules) - before if m.startswith('numpy.random')))\n"
        )
        proc = _run_python("-c", code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"
