"""Command-line front end: exact bounds, reference reproductions, noise sweeps.

Exit codes: 0 success, 2 usage or configuration error, 3 a Monte Carlo
reproduction missed its configured acceptance band (files are still
written).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

from . import __version__
from .config import (
    ConfigError,
    RunConfig,
    config_to_mapping,
    load_config,
)
from .mub import pauli_mub_pair, product_mub_pair
from .photonics import SimulationConfig, TrialResult, simulate_trial
from .qrac import (
    allocation_figure,
    classical_bound,
    empirical_advantage,
    encoding_table,
    measurement_pair_from_mub,
    quantum_bound,
)

SWEEP_HEADER = "power_dbm,p_z,p_z_err,p_x,p_x_err,advantage_z,advantage_x,phi"
SWEEP_COLUMNS = SWEEP_HEADER.split(",")

# Reference measurements of the coexistence experiment, used by the
# reproduction commands for side-by-side comparison only.
REFERENCE_TABLE2 = {
    "00": (0.8537, 0.8502),
    "01": (0.8532, 0.8140),
    "10": (0.8520, 0.8184),
    "11": (0.8555, 0.7937),
}
REFERENCE_TABLE4 = {
    "M1": (0.791, 0.041),
    "M2": (0.829, 0.079),
    "M12": (0.751, 0.126),
}
# Ideal model targets the simulator is expected to hit (detector asymmetries
# that skew the measured M1/M2 split are deliberately unmodeled).
IDEAL_TABLE4 = {"M1": 5.0 / 6.0, "M2": 5.0 / 6.0, "M12": 0.75}

DEFAULT_FIG_SWEEP = tuple(float(p) for p in range(-40, -14, 1))


def _fmt(x) -> str:
    if x is None:
        return ""
    return f"{x:.6g}"


def _simulation_config(config: RunConfig, power_dbm: float | None) -> SimulationConfig:
    channel = replace(config.channel, classical_power_dbm=power_dbm)
    return SimulationConfig(
        protocol=config.protocol,
        source=config.source,
        channel=channel,
        detector=config.detector,
        dli=config.dli,
        rounds=config.rounds,
        seed=config.seed,
        workers=config.workers,
    )


def _require_conclusive(estimates: dict, rounds: int) -> None:
    """Refuse, before anything is written, an estimate that is NaN because
    none of its rounds was conclusive."""
    empty = [name for name, p in estimates.items() if p is not None and math.isnan(p)]
    if empty:
        raise ConfigError(
            f"{', '.join(empty)} had no conclusive rounds out of {rounds}", key="run.rounds"
        )


def _row_from_trial(power_dbm: float | None, trial: TrialResult) -> dict:
    """One sweep point keyed by the SWEEP_COLUMNS; a 2,4 row also carries
    the M1/M2 estimates, which only the JSON mirror writes."""
    _require_conclusive(
        {name: getattr(trial, name) for name in ("p_z", "p_x", "p_m1", "p_m2", "p_m12")},
        trial.rounds,
    )
    if trial.protocol == "2,2":
        bound = classical_bound(2)
        adv_z = empirical_advantage(trial.p_z, bound).value
        adv_x = empirical_advantage(trial.p_x, bound).value
        columns = (power_dbm, trial.p_z, trial.p_z_err, trial.p_x, trial.p_x_err, adv_z, adv_x, None)
        return dict(zip(SWEEP_COLUMNS, columns, strict=True))
    adv_m12 = empirical_advantage(trial.p_m12, classical_bound(4)).value
    adv_m1 = empirical_advantage(trial.p_m1, 0.75).value
    adv_m2 = empirical_advantage(trial.p_m2, 0.75).value
    phi = allocation_figure(adv_m12, adv_m1, adv_m2).phi
    columns = (power_dbm, trial.p_m12, trial.p_m12_err, None, None, adv_m12, None, phi)
    return {
        **dict(zip(SWEEP_COLUMNS, columns, strict=True)),
        "p_m1": trial.p_m1,
        "p_m1_err": trial.p_m1_err,
        "p_m2": trial.p_m2,
        "p_m2_err": trial.p_m2_err,
        "advantage_m1": adv_m1,
        "advantage_m2": adv_m2,
    }


def _run_sweep(config: RunConfig) -> list[dict]:
    rows = []
    for power in config.sweep:
        trial = simulate_trial(_simulation_config(config, power))
        rows.append(_row_from_trial(power, trial))
    return rows


def _sweep_csv(rows: list[dict]) -> str:
    lines = [SWEEP_HEADER] + [",".join(_fmt(row[c]) for c in SWEEP_COLUMNS) for row in rows]
    return "\n".join(lines) + "\n"


def _sweep_json(config: RunConfig, rows: list[dict]) -> str:
    payload = {
        "config": config_to_mapping(config),
        "rows": rows,
        "meta": {"seed": config.seed, "version": __version__},
    }
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _emit(config: RunConfig, rows: list[dict], out_path: str | None, stdout) -> None:
    csv_text = _sweep_csv(rows)
    json_text = _sweep_json(config, rows)
    if out_path:
        path = Path(out_path)
        path.write_text(csv_text, encoding="utf-8", newline="\n")
        path.with_suffix(".json").write_text(json_text, encoding="utf-8", newline="\n")
        print(f"wrote {path} and {path.with_suffix('.json')}", file=stdout)
    elif config.fmt == "json":
        stdout.write(json_text)
    else:
        stdout.write(csv_text)


def cmd_bounds(args, stdout, stderr) -> int:
    d = args.d
    if d < 2 or d > 16:
        print(f"error: --d must be in 2..16, got {d}", file=stderr)
        return 2
    rac = classical_bound(d)
    qrac = quantum_bound(d)
    ideal = (d**0.5 - 1.0) / d
    print(f"rac={_fmt(rac)} qrac={_fmt(qrac)} advantage={_fmt(ideal)}", file=stdout)
    return 0


def _encoding_rows(protocol: str) -> list[tuple[str, tuple]]:
    if protocol == "2,2":
        table = encoding_table(measurement_pair_from_mub(pauli_mub_pair()))
        return [
            (f"{x1}{x2}", tuple(table[(x1, x2)].amplitudes.real))
            for x1 in range(2)
            for x2 in range(2)
        ]
    table = encoding_table(measurement_pair_from_mub(product_mub_pair(pauli_mub_pair(), 2)))
    return [(f"{q}0", tuple(table[(q, 0)].amplitudes.real)) for q in range(4)]


def _write_table(path: str | None, text: str, stdout) -> None:
    if path:
        Path(path).write_text(text, encoding="utf-8", newline="\n")
        print(f"wrote {path}", file=stdout)
    else:
        stdout.write(text)


def _reproduce_encodings(target: str, config: RunConfig, stdout) -> int:
    protocol = "2,2" if target == "table1" else "2,4"
    rows = _encoding_rows(protocol)
    width = len(rows[0][1])
    header = "message," + ",".join(f"component_{i}" for i in range(width))
    lines = [header]
    for label, comps in rows:
        lines.append(label + "," + ",".join(f"{c:.6f}" for c in comps))
    _write_table(config.out, "\n".join(lines) + "\n", stdout)
    return 0


def _reproduce_table2(config: RunConfig, stdout, stderr) -> int:
    cfg = replace(config, protocol="2,2")
    trial = simulate_trial(_simulation_config(cfg, config.channel.classical_power_dbm))
    lines = ["state,p_z,p_z_ref,p_z_dev,p_x,p_x_ref,p_x_dev"]
    for label in trial.state_labels:
        p_z = trial.state_p_z(label)
        p_x = trial.state_p_x(label)
        _require_conclusive({f"p_z of state {label}": p_z, f"p_x of state {label}": p_x}, trial.rounds)
        ref_z, ref_x = REFERENCE_TABLE2[label]
        lines.append(
            ",".join(
                [label]
                + [_fmt(v) for v in (p_z, ref_z, p_z - ref_z, p_x, ref_x, p_x - ref_x)]
            )
        )
    _write_table(config.out, "\n".join(lines) + "\n", stdout)

    bands = config.bands
    mean_p_z = trial.p_z
    ok = abs(mean_p_z - bands.p_z_reference) <= bands.p_z_tolerance
    ok = ok and bands.p_x_low <= trial.p_x <= bands.p_x_high
    if not ok:
        print(
            f"acceptance band failed: p_z={_fmt(mean_p_z)} p_x={_fmt(trial.p_x)}",
            file=stderr,
        )
        return 3
    return 0


def _reproduce_table4(config: RunConfig, stdout, stderr) -> int:
    cfg = _simulation_config(
        replace(config, protocol="2,4"), config.channel.classical_power_dbm
    )
    row = _row_from_trial(None, simulate_trial(cfg))
    # the 2,4 sweep row carries M12 in its z columns
    columns = {"M1": "m1", "M2": "m2", "M12": "z"}
    estimates = {name: row[f"p_{column}"] for name, column in columns.items()}
    lines = ["measurement,p,p_ref,p_dev,advantage,advantage_ref"]
    for name, column in columns.items():
        p = estimates[name]
        ref_p, ref_adv = REFERENCE_TABLE4[name]
        adv = row[f"advantage_{column}"]
        lines.append(
            ",".join([name] + [_fmt(v) for v in (p, ref_p, p - ref_p, adv, ref_adv)])
        )
    _write_table(config.out, "\n".join(lines) + "\n", stdout)

    tol = config.bands.quart_tolerance
    ok = all(abs(estimates[k] - IDEAL_TABLE4[k]) <= tol for k in estimates)
    if not ok:
        devs = {k: _fmt(estimates[k] - IDEAL_TABLE4[k]) for k in estimates}
        print(f"acceptance band failed: deviations from ideal {devs}", file=stderr)
        return 3
    return 0


def _crossing_power(rows: list[dict], threshold: float) -> float | None:
    for first, second in zip(rows, rows[1:]):
        if first["p_z"] >= threshold >= second["p_z"]:
            if first["p_z"] == second["p_z"]:
                return first["power_dbm"]
            t = (first["p_z"] - threshold) / (first["p_z"] - second["p_z"])
            return first["power_dbm"] + t * (second["power_dbm"] - first["power_dbm"])
    return None


def _reproduce_figure(target: str, config: RunConfig, stdout, stderr) -> int:
    protocol = "2,2" if target == "fig4" else "2,4"
    sweep = config.sweep or DEFAULT_FIG_SWEEP
    cfg = replace(config, protocol=protocol, sweep=sweep)
    rows = _run_sweep(cfg)
    _emit(cfg, rows, cfg.out, stdout)
    if target == "fig4":
        bands = cfg.bands
        crossing = _crossing_power(rows, classical_bound(2))
        if crossing is None or abs(crossing - bands.crossing_dbm) > bands.crossing_tolerance_dbm:
            print(
                f"acceptance band failed: classical-bound crossing at "
                f"{_fmt(crossing)} dBm, expected {_fmt(bands.crossing_dbm)} "
                f"+/- {_fmt(bands.crossing_tolerance_dbm)}",
                file=stderr,
            )
            return 3
    return 0


def cmd_reproduce(args, stdout, stderr) -> int:
    config = _load_run_config(args)
    target = args.target
    if target in ("table1", "table3"):
        return _reproduce_encodings(target, config, stdout)
    if target == "table2":
        return _reproduce_table2(config, stdout, stderr)
    if target == "table4":
        return _reproduce_table4(config, stdout, stderr)
    return _reproduce_figure(target, config, stdout, stderr)


def cmd_sweep(args, stdout, stderr) -> int:
    config = _load_run_config(args)
    rows = _run_sweep(config)
    _emit(config, rows, config.out, stdout)
    return 0


# command-line flag -> the RunConfig field it overrides
_FLAG_FIELDS = {
    "protocol": "protocol",
    "rounds": "rounds",
    "seed": "seed",
    "power": "sweep",
    "out": "out",
    "format": "fmt",
}


def _load_run_config(args) -> RunConfig:
    config = load_config(args.config) if args.config else RunConfig()
    # an absent or empty flag keeps the configured value
    changes = {
        field: getattr(args, flag)
        for flag, field in _FLAG_FIELDS.items()
        if getattr(args, flag) not in (None, "")
    }
    return replace(config, **changes) if changes else config


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qracsim",
        description="(2,d) random access codes: exact bounds and a time-bin Monte Carlo",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    bounds = sub.add_parser("bounds", help="print classical/quantum bounds and the ideal advantage")
    bounds.add_argument("--d", type=int, required=True, help="alphabet size (2..16)")

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--protocol", choices=("2,2", "2,4"))
    common.add_argument("--rounds", type=int)
    common.add_argument("--seed", type=int)
    common.add_argument("--power", type=float, action="append", metavar="DBM",
                        help="classical power sweep point, repeatable")
    common.add_argument("--config", help="flat key-value config file or JSON results mirror")
    common.add_argument("--out", help="output CSV path (JSON mirror written beside it)")
    common.add_argument("--format", choices=("csv", "json"), help="stdout format when --out is absent")

    reproduce = sub.add_parser("reproduce", parents=[common],
                               help="regenerate a reference table or figure dataset")
    reproduce.add_argument("target", choices=("table1", "table2", "table3", "table4", "fig4", "fig5"))

    sub.add_parser("sweep", parents=[common], help="run a classical-power sweep")
    return parser


def main(argv=None, stdout=None, stderr=None) -> int:
    stdout = stdout or sys.stdout
    stderr = stderr or sys.stderr
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        if args.command == "bounds":
            return cmd_bounds(args, stdout, stderr)
        if args.command == "reproduce":
            return cmd_reproduce(args, stdout, stderr)
        return cmd_sweep(args, stdout, stderr)
    except ConfigError as exc:
        print(f"config error: {exc}", file=stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=stderr)
        return 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
