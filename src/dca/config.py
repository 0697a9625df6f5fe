"""Readers for the run config and the oracle and landscape specs, and their JSON files.

Each reports a value it cannot use as a ConfigError naming the setting.
"""

from __future__ import annotations

import json
from functools import partial
from pathlib import Path

from .errors import ConfigError


def read_json_file(path: str | Path):
    """The JSON document in the file at `path`; a file that is not JSON is a ConfigError."""
    try:
        return json.loads(Path(path).read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as err:
        raise ConfigError(f"{path}: invalid JSON: {err}") from err


def check_keys(doc: dict, allowed, where: str) -> None:
    if not isinstance(doc, dict):
        raise ConfigError(f"{where} must be an object, got {doc!r}")
    unknown = set(doc) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown)}")


def required(doc: dict, key: str, where: str):
    if key not in doc:
        raise ConfigError(f"{where} missing required key {key!r}")
    return doc[key]


def not_an_int(value) -> bool:
    """A bool or a non-integral float: what an int setting rejects instead of truncating."""
    return isinstance(value, bool) or (isinstance(value, float) and not value.is_integer())


def number(kind: type, value, what: str):
    """`value` as an int or a float: the one rule for what a config number is.

    A bool is not a number, and an int setting rejects a non-integral value
    instead of truncating it (9.0 reads as 9). Anything else `kind` cannot
    convert is a ConfigError too.
    """
    if not_an_int(value) if kind is int else isinstance(value, bool):
        raise ConfigError(f"{what} {value!r} is not {'an integer' if kind is int else 'a number'}")
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError) as err:
        raise ConfigError(f"{what} {value!r} is not a number") from err


integer = partial(number, int)
real = partial(number, float)


def read(doc: dict, keys: dict, prefix: str) -> dict:
    """Keyword arguments for the keys of `keys` that `doc` holds.

    `keys` maps a config key to (field name, reader); the reader gets the
    value and the setting's name, `prefix` + key. A key `doc` does not hold
    is left out, so its field keeps the dataclass default.
    """
    return {field: reader(doc[key], prefix + key) for key, (field, reader) in keys.items() if key in doc}
