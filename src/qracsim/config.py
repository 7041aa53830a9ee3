"""Run configuration: flat key-value files with dotted section keys.

The grammar is one ``section.key = value`` assignment per line, ``#``
comments, blank lines ignored.  A JSON results file produced by the CLI can
be re-ingested directly: its ``config`` object holds the same flat mapping,
so reruns reproduce the original output byte for byte.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .photonics import (
    ChannelModel,
    DetectorModel,
    DliModel,
    PROTOCOLS,
    SourceModel,
)


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


@dataclass(frozen=True)
class RunConfig:
    """Complete description of a CLI run."""

    protocol: str = "2,2"
    rounds: int = 200_000
    seed: int = 1
    workers: int = 1
    sweep: tuple = ()
    out: str | None = None
    fmt: str = "csv"
    source: SourceModel = field(default_factory=SourceModel)
    channel: ChannelModel = field(default_factory=ChannelModel)
    detector: DetectorModel = field(default_factory=DetectorModel)
    dli: DliModel = field(default_factory=DliModel)
    bands: BandConfig = field(default_factory=BandConfig)

    def __post_init__(self):
        if self.protocol not in PROTOCOLS:
            raise ConfigError(f"unknown protocol {self.protocol!r}", key="run.protocol")
        if self.rounds < 1:
            raise ConfigError("rounds must be at least 1", key="run.rounds")
        if self.workers < 1:
            raise ConfigError("workers must be at least 1", key="run.workers")
        if self.fmt not in ("csv", "json"):
            raise ConfigError(f"unknown format {self.fmt!r}", key="run.format")
        if any(not math.isfinite(p) for p in self.sweep):
            raise ConfigError("sweep powers must be finite", key="run.sweep")
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


def _parse_sweep(text: str, key: str, line: int | None = None) -> tuple:
    text = text.strip()
    if not text:
        return ()
    return tuple(_parse_float(part.strip(), key, line) for part in text.split(","))


def parse_config_text(text: str) -> dict[str, str]:
    """Parse the flat key-value grammar into a mapping, with diagnostics."""
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
    return mapping


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
    "source.rep_period_ns": ("source", "rep_period_ns", "float"),
    "channel.loss_db": ("channel", "loss_db", "float"),
    "channel.raman_coefficient": ("channel", "raman_coefficient", "float"),
    "channel.classical_power_dbm": ("channel", "classical_power_dbm", "optional_float"),
    "detector.efficiency": ("detector", "efficiency", "float"),
    "detector.dark_rate_hz": ("detector", "dark_rate_hz", "float"),
    "detector.jitter_fwhm_ps": ("detector", "jitter_fwhm_ps", "float"),
    "detector.gate_width_ps": ("detector", "gate_width_ps", "float"),
    "dli.delay_ps": ("dli", "delay_ps", "float"),
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
    run_kwargs: dict = {}
    model_kwargs: dict[str, dict] = {"source": {}, "channel": {}, "detector": {}, "dli": {}, "bands": {}}
    for key, raw in mapping.items():
        if key not in _SCHEMA:
            raise ConfigError("unknown configuration key", line=lines.get(key), key=key)
        target, attr, kind = _SCHEMA[key]
        line = lines.get(key)
        value = str(raw)
        if kind == "int":
            parsed = _parse_int(value, key, line)
        elif kind == "float":
            parsed = _parse_float(value, key, line)
        elif kind == "optional_float":
            parsed = None if value.strip().lower() in ("", "none", "off") else _parse_float(value, key, line)
        elif kind == "sweep":
            parsed = _parse_sweep(value, key, line)
        else:
            parsed = value.strip()
        if target == "run":
            run_kwargs[attr] = parsed
        else:
            model_kwargs[target][attr] = parsed
    try:
        return RunConfig(
            source=SourceModel(**model_kwargs["source"]),
            channel=ChannelModel(**model_kwargs["channel"]),
            detector=DetectorModel(**model_kwargs["detector"]),
            dli=DliModel(**model_kwargs["dli"]),
            bands=BandConfig(**model_kwargs["bands"]),
            **run_kwargs,
        )
    except ValueError as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(str(exc)) from exc


def config_to_mapping(config: RunConfig) -> dict[str, str]:
    """Flat mapping that reproduces this configuration exactly.

    The output path is deliberately not echoed: artifacts stay byte-identical
    wherever they are written.
    """
    mapping = {
        "run.protocol": config.protocol,
        "run.rounds": str(config.rounds),
        "run.seed": str(config.seed),
        "run.workers": str(config.workers),
        "run.sweep": ",".join(_format_float(p) for p in config.sweep),
        "run.format": config.fmt,
        "source.mu": _format_float(config.source.mu),
        "source.rep_period_ns": _format_float(config.source.rep_period_ns),
        "channel.loss_db": _format_float(config.channel.loss_db),
        "channel.raman_coefficient": _format_float(config.channel.raman_coefficient),
        "channel.classical_power_dbm": (
            "none"
            if config.channel.classical_power_dbm is None
            else _format_float(config.channel.classical_power_dbm)
        ),
        "detector.efficiency": _format_float(config.detector.efficiency),
        "detector.dark_rate_hz": _format_float(config.detector.dark_rate_hz),
        "detector.jitter_fwhm_ps": _format_float(config.detector.jitter_fwhm_ps),
        "detector.gate_width_ps": _format_float(config.detector.gate_width_ps),
        "dli.delay_ps": _format_float(config.dli.delay_ps),
        "dli.visibility": _format_float(config.dli.visibility),
        "band.p_z_reference": _format_float(config.bands.p_z_reference),
        "band.p_z_tolerance": _format_float(config.bands.p_z_tolerance),
        "band.p_x_low": _format_float(config.bands.p_x_low),
        "band.p_x_high": _format_float(config.bands.p_x_high),
        "band.quart_tolerance": _format_float(config.bands.quart_tolerance),
        "band.crossing_dbm": _format_float(config.bands.crossing_dbm),
        "band.crossing_tolerance_dbm": _format_float(config.bands.crossing_tolerance_dbm),
    }
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
        return config_from_mapping({str(k): str(v) for k, v in mapping.items()})
    lines: dict[str, int] = {}
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line and "=" in line:
            lines[line.split("=", 1)[0].strip()] = number
    return config_from_mapping(parse_config_text(text), lines)
