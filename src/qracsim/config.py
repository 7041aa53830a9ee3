"""Run configuration: flat key-value files with dotted section keys.

The grammar is one ``section.key = value`` assignment per line, ``#``
comments, blank lines ignored.  A JSON results file produced by the CLI can
be re-ingested directly: its ``config`` object holds the same flat mapping,
so reruns reproduce the original output byte for byte.
"""

from __future__ import annotations

import json
import math
from collections import defaultdict
from dataclasses import dataclass, field, fields

from .photonics import ChannelModel, DetectorModel, DliModel, SimulationConfig, SourceModel


class ConfigError(ValueError):
    """Malformed configuration, with file/line/field diagnostics."""

    def __init__(self, message: str, line: int | None = None, key: str | None = None):
        parts = []
        if line is not None:
            parts.append(f"line {line}")
        if key is not None:
            parts.append(f"key {key!r}")
        super().__init__(message + (f" [{', '.join(parts)}]" if parts else ""))
        self.line = line
        self.key = key


@dataclass(frozen=True)
class BandConfig:
    """Acceptance bands checked by the reproduction commands."""

    p_z_reference: float = 0.8536
    p_z_tolerance: float = 0.005
    p_x_low: float = 0.79
    p_x_high: float = 0.86
    quart_tolerance: float = 0.005
    crossing_dbm: float = -25.0
    crossing_tolerance_dbm: float = 1.0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not math.isfinite(value):
                raise ValueError(f"band.{f.name} must be finite, got {value}")


@dataclass(frozen=True)
class RunConfig(SimulationConfig):
    """Complete description of a CLI run: the settings of its trials, which
    ``SimulationConfig`` declares and checks, plus the power sweep, the
    output path and format, and the acceptance bands."""

    rounds: int = 200_000
    sweep: tuple = ()
    out: str | None = None
    fmt: str = "csv"
    bands: BandConfig = field(default_factory=BandConfig)

    def __post_init__(self):
        super().__post_init__()
        if self.fmt not in ("csv", "json"):
            raise ConfigError(f"run.format must be csv or json, got {self.fmt!r}")
        for power in self.sweep:
            if not math.isfinite(power):
                raise ConfigError(f"run.sweep must be finite powers, got {power}")
        object.__setattr__(self, "sweep", tuple(float(p) for p in self.sweep))


def _format_float(x: float) -> str:
    return repr(float(x))


def _parse_float(text: str, key: str, line: int | None = None) -> float:
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"expected a number, got {text!r}", line=line, key=key) from None


def _parse_int(text: str, key: str, line: int | None = None) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"expected an integer, got {text!r}", line=line, key=key) from None


def _parse_optional_float(text: str, key: str, line: int | None = None) -> float | None:
    if text.strip().lower() in ("", "none", "off"):
        return None
    return _parse_float(text, key, line)


def _parse_sweep(text: str, key: str, line: int | None = None) -> tuple:
    text = text.strip()
    if not text:
        return ()
    return tuple(_parse_float(part.strip(), key, line) for part in text.split(","))


# parser kind -> (parse text, format value); parsing a formatted value gives
# the value back, so a JSON mirror re-ingests exactly.
_KINDS = {
    "str": (lambda text, key, line: text.strip(), str),
    "int": (_parse_int, str),
    "float": (_parse_float, _format_float),
    "optional_float": (_parse_optional_float, lambda x: "none" if x is None else _format_float(x)),
    "sweep": (_parse_sweep, lambda powers: ",".join(_format_float(p) for p in powers)),
}


def parse_config_text(text: str) -> dict[str, str]:
    """Parse the flat key-value grammar into a mapping, with diagnostics."""
    return _scan_config_text(text)[0]


def _scan_config_text(text: str) -> tuple[dict[str, str], dict[str, int]]:
    """The mapping of ``parse_config_text`` and the line each key is set on."""
    mapping: dict[str, str] = {}
    seen: dict[str, int] = {}
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError("expected 'key = value'", line=number)
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError("empty key", line=number)
        if key in seen:
            raise ConfigError(
                f"duplicate key (first set on line {seen[key]})", line=number, key=key
            )
        seen[key] = number
        mapping[key] = value
    return mapping, seen


# key -> (target, attribute, parser kind)
_SCHEMA = {
    "run.protocol": ("run", "protocol", "str"),
    "run.rounds": ("run", "rounds", "int"),
    "run.seed": ("run", "seed", "int"),
    "run.workers": ("run", "workers", "int"),
    "run.sweep": ("run", "sweep", "sweep"),
    "run.out": ("run", "out", "str"),
    "run.format": ("run", "fmt", "str"),
    "source.mu": ("source", "mu", "float"),
    "channel.loss_db": ("channel", "loss_db", "float"),
    "channel.raman_coefficient": ("channel", "raman_coefficient", "float"),
    "channel.classical_power_dbm": ("channel", "classical_power_dbm", "optional_float"),
    "detector.efficiency": ("detector", "efficiency", "float"),
    "detector.dark_rate_hz": ("detector", "dark_rate_hz", "float"),
    "detector.jitter_fwhm_ps": ("detector", "jitter_fwhm_ps", "float"),
    "dli.visibility": ("dli", "visibility", "float"),
    "band.p_z_reference": ("bands", "p_z_reference", "float"),
    "band.p_z_tolerance": ("bands", "p_z_tolerance", "float"),
    "band.p_x_low": ("bands", "p_x_low", "float"),
    "band.p_x_high": ("bands", "p_x_high", "float"),
    "band.quart_tolerance": ("bands", "quart_tolerance", "float"),
    "band.crossing_dbm": ("bands", "crossing_dbm", "float"),
    "band.crossing_tolerance_dbm": ("bands", "crossing_tolerance_dbm", "float"),
}


def config_from_mapping(mapping: dict[str, str], lines: dict[str, int] | None = None) -> RunConfig:
    """Build a RunConfig from a flat mapping, rejecting unknown keys."""
    lines = lines or {}
    kwargs: dict[str, dict] = defaultdict(dict)
    for key, raw in mapping.items():
        if key not in _SCHEMA:
            raise ConfigError("unknown configuration key", line=lines.get(key), key=key)
        target, attr, kind = _SCHEMA[key]
        kwargs[target][attr] = _KINDS[kind][0](str(raw), key, lines.get(key))
    try:
        return RunConfig(
            source=SourceModel(**kwargs["source"]),
            channel=ChannelModel(**kwargs["channel"]),
            detector=DetectorModel(**kwargs["detector"]),
            dli=DliModel(**kwargs["dli"]),
            bands=BandConfig(**kwargs["bands"]),
            **kwargs["run"],
        )
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(str(exc)) from exc


def config_to_mapping(config: RunConfig) -> dict[str, str]:
    """Flat mapping that reproduces this configuration exactly.

    Every schema key is echoed except the output path, so artifacts stay
    byte-identical wherever they are written.
    """
    mapping = {}
    for key, (target, attr, kind) in _SCHEMA.items():
        if key == "run.out":
            continue
        holder = config if target == "run" else getattr(config, target)
        mapping[key] = _KINDS[kind][1](getattr(holder, attr))
    return mapping


def load_config(path: str) -> RunConfig:
    """Load a configuration from a flat file or a JSON results mirror."""
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON config: {exc}") from exc
        mapping = payload.get("config", payload)
        if not isinstance(mapping, dict):
            raise ConfigError("JSON config must be an object of key-value pairs")
        # JSON null is the empty value, as in ``key =`` of a flat file
        return config_from_mapping({str(k): "" if v is None else str(v) for k, v in mapping.items()})
    return config_from_mapping(*_scan_config_text(text))
