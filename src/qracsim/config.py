"""Run configuration: flat key-value files with dotted section keys.

The grammar is one ``section.key = value`` assignment per line, ``#``
comments, blank lines ignored.  A JSON results file produced by the CLI can
be re-ingested directly: its ``config`` object holds the same flat mapping,
so reruns reproduce the original output byte for byte.

Each key is a dataclass field: ``section.name`` of the device model that the
``RunConfig`` field ``section`` holds, or ``run.name`` of ``RunConfig`` itself.
"""

from __future__ import annotations

import json
import math
from collections import defaultdict
from dataclasses import dataclass, fields, is_dataclass
from typing import get_type_hints

from .photonics import SimulationConfig


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
class RunConfig(SimulationConfig):
    """Complete description of a CLI run: the settings of its trials, which
    ``SimulationConfig`` declares and checks, plus the power sweep and the
    output path and format."""

    rounds: int = 200_000
    sweep: tuple = ()
    out: str | None = None
    format: str = "csv"

    def __post_init__(self):
        super().__post_init__()
        if self.format not in ("csv", "json"):
            raise ConfigError(f"run.format must be csv or json, got {self.format!r}")
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


# field annotation -> (parse text, format value); parsing a formatted value
# gives the value back, so a JSON mirror re-ingests exactly.
_KINDS = {
    str: (lambda text, key, line: text.strip(), str),
    str | None: (lambda text, key, line: text.strip() or None, lambda x: x or ""),
    int: (_parse_int, str),
    float: (_parse_float, _format_float),
    float | None: (_parse_optional_float, lambda x: "none" if x is None else _format_float(x)),
    tuple: (_parse_sweep, lambda powers: ",".join(_format_float(p) for p in powers)),
}


def _fields(cls) -> dict:
    """A dataclass's field names, in order, each with its resolved annotation."""
    hints = get_type_hints(cls)
    return {f.name: hints[f.name] for f in fields(cls)}


# section -> the device model class its RunConfig field holds
_MODELS = {name: hint for name, hint in _fields(RunConfig).items() if is_dataclass(hint)}
# key -> (section, attribute, (parse, format)): each model's fields under its
# section, and every other RunConfig field under run
_SCHEMA = {
    f"{section}.{name}": (section, name, _KINDS[hint])
    for section, cls in (("run", RunConfig), *_MODELS.items())
    for name, hint in _fields(cls).items()
    if cls is not RunConfig or name not in _MODELS
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


def config_from_mapping(mapping: dict[str, str], lines: dict[str, int] | None = None) -> RunConfig:
    """Build a RunConfig from a flat mapping, rejecting unknown keys."""
    lines = lines or {}
    kwargs: dict[str, dict] = defaultdict(dict)
    for key, raw in mapping.items():
        if key not in _SCHEMA:
            raise ConfigError("unknown configuration key", line=lines.get(key), key=key)
        section, attr, (parse, _) = _SCHEMA[key]
        kwargs[section][attr] = parse(str(raw), key, lines.get(key))
    run = kwargs.pop("run", {})
    try:
        return RunConfig(**{section: _MODELS[section](**values) for section, values in kwargs.items()}, **run)
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
    for key, (section, attr, (_, format_value)) in _SCHEMA.items():
        if key == "run.out":
            continue
        holder = config if section == "run" else getattr(config, section)
        mapping[key] = format_value(getattr(holder, attr))
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
