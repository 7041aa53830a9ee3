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
from functools import partial
from pathlib import Path

from . import __version__
from .config import (
    ConfigError,
    RunConfig,
    config_to_mapping,
    load_config,
)
from .mub import pauli_mub_pair, product_mub_pair
from .photonics import PROTOCOLS, TrialResult, protocol_messages, simulate_trial
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
        trial = simulate_trial(replace(config, channel=replace(config.channel, classical_power_dbm=power)))
        rows.append(_row_from_trial(power, trial))
    return rows


def _csv(header: str, rows) -> str:
    """CSV text: the header line, then one line per row of cell strings."""
    return "\n".join([header, *(",".join(row) for row in rows)]) + "\n"


def _sweep_csv(rows: list[dict]) -> str:
    return _csv(SWEEP_HEADER, ([_fmt(row[c]) for c in SWEEP_COLUMNS] for row in rows))


def _sweep_json(config: RunConfig, rows: list[dict]) -> str:
    payload = {
        "config": config_to_mapping(config),
        "rows": rows,
        "meta": {"seed": config.seed, "version": __version__},
    }
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _emit(config: RunConfig, csv_text: str, json_text: str | None, stdout) -> None:
    """Write the CSV to `out`, and the JSON mirror, if there is one, beside
    it; without `out`, print the mirror under the json format, else the CSV."""
    if not config.out:
        stdout.write(json_text if json_text is not None and config.fmt == "json" else csv_text)
        return
    path = Path(config.out)
    written = []
    for dest, text in ((path, csv_text), (path.with_suffix(".json"), json_text)):
        if text is not None:
            dest.write_text(text, encoding="utf-8", newline="\n")
            written.append(str(dest))
    print("wrote " + " and ".join(written), file=stdout)


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


Outputs = tuple[str, str | None, list[str]]  # what a reproduce target returns: see TARGETS


def _encodings(protocol: str, config: RunConfig) -> Outputs:
    pair = pauli_mub_pair() if protocol == "2,2" else product_mub_pair(pauli_mub_pair(), 2)
    table = encoding_table(measurement_pair_from_mub(pair))
    messages = protocol_messages(protocol)
    header = "message," + ",".join(f"component_{i}" for i in range(messages[0].alphabet))
    return _csv(header, ([m.label, *(f"{c:.6f}" for c in table[m].real)] for m in messages)), None, []


def _table2(config: RunConfig) -> Outputs:
    trial = simulate_trial(replace(config, protocol="2,2"))
    rows = []
    for label in trial.state_labels:
        p_z = trial.state_p_z(label)
        p_x = trial.state_p_x(label)
        _require_conclusive({f"p_z of state {label}": p_z, f"p_x of state {label}": p_x}, trial.rounds)
        ref_z, ref_x = REFERENCE_TABLE2[label]
        rows.append([label, *map(_fmt, (p_z, ref_z, p_z - ref_z, p_x, ref_x, p_x - ref_x))])
    bands = config.bands
    ok = abs(trial.p_z - bands.p_z_reference) <= bands.p_z_tolerance
    ok = ok and bands.p_x_low <= trial.p_x <= bands.p_x_high
    failures = [] if ok else [f"p_z={_fmt(trial.p_z)} p_x={_fmt(trial.p_x)}"]
    return _csv("state,p_z,p_z_ref,p_z_dev,p_x,p_x_ref,p_x_dev", rows), None, failures


def _table4(config: RunConfig) -> Outputs:
    row = _row_from_trial(None, simulate_trial(replace(config, protocol="2,4")))
    # the 2,4 sweep row carries M12 in its z columns
    columns = {"M1": "m1", "M2": "m2", "M12": "z"}
    estimates = {name: row[f"p_{column}"] for name, column in columns.items()}
    rows = []
    for name, column in columns.items():
        p = estimates[name]
        ref_p, ref_adv = REFERENCE_TABLE4[name]
        adv = row[f"advantage_{column}"]
        rows.append([name, *map(_fmt, (p, ref_p, p - ref_p, adv, ref_adv))])
    tol = config.bands.quart_tolerance
    ok = all(abs(estimates[k] - IDEAL_TABLE4[k]) <= tol for k in estimates)
    devs = {k: _fmt(estimates[k] - IDEAL_TABLE4[k]) for k in estimates}
    failures = [] if ok else [f"deviations from ideal {devs}"]
    return _csv("measurement,p,p_ref,p_dev,advantage,advantage_ref", rows), None, failures


def _crossing_power(rows: list[dict], threshold: float) -> float | None:
    """Power at which p_z first falls to the threshold, linear between
    rows; a flat segment at the threshold gives its left power."""
    for first, second in zip(rows, rows[1:]):
        a, b = first["p_z"], second["p_z"]
        if a >= threshold >= b:
            t = (a - threshold) / (a - b) if a > b else 0.0
            return first["power_dbm"] + t * (second["power_dbm"] - first["power_dbm"])
    return None


def _figure(protocol: str, config: RunConfig) -> Outputs:
    cfg = replace(config, protocol=protocol, sweep=config.sweep or DEFAULT_FIG_SWEEP)
    rows = _run_sweep(cfg)
    failures = []
    # the crossing band is the qubit code's: where p_z falls to the classical bound
    if protocol == "2,2":
        bands = cfg.bands
        crossing = _crossing_power(rows, classical_bound(2))
        if crossing is None or abs(crossing - bands.crossing_dbm) > bands.crossing_tolerance_dbm:
            failures.append(
                f"classical-bound crossing at {_fmt(crossing)} dBm, expected "
                f"{_fmt(bands.crossing_dbm)} +/- {_fmt(bands.crossing_tolerance_dbm)}"
            )
    return _sweep_csv(rows), _sweep_json(cfg, rows), failures


# Each reproduce target maps the RunConfig to its CSV text, its JSON mirror
# (None for a table) and the texts of the acceptance bands it missed; a new
# target is one such function and one entry here.
TARGETS = {
    "table1": partial(_encodings, "2,2"),
    "table2": _table2,
    "table3": partial(_encodings, "2,4"),
    "table4": _table4,
    "fig4": partial(_figure, "2,2"),
    "fig5": partial(_figure, "2,4"),
}


def cmd_reproduce(args, stdout, stderr) -> int:
    config = _load_run_config(args)
    csv_text, json_text, failures = TARGETS[args.target](config)
    _emit(config, csv_text, json_text, stdout)
    for failure in failures:
        print(f"acceptance band failed: {failure}", file=stderr)
    return 3 if failures else 0


def cmd_sweep(args, stdout, stderr) -> int:
    config = _load_run_config(args)
    rows = _run_sweep(config)
    _emit(config, _sweep_csv(rows), _sweep_json(config, rows), stdout)
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
    common.add_argument("--protocol", choices=PROTOCOLS)
    common.add_argument("--rounds", type=int)
    common.add_argument("--seed", type=int)
    common.add_argument("--power", type=float, action="append", metavar="DBM",
                        help="classical power sweep point, repeatable")
    common.add_argument("--config", help="flat key-value config file or JSON results mirror")
    common.add_argument("--out", help="output CSV path (JSON mirror written beside it)")
    common.add_argument("--format", choices=("csv", "json"), help="stdout format when --out is absent")

    reproduce = sub.add_parser("reproduce", parents=[common],
                               help="regenerate a reference table or figure dataset")
    reproduce.add_argument("target", choices=TARGETS)

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
