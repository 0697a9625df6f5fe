"""Readers for input files, the run config and the oracle and landscape specs.

Each reports a file or a value it cannot use as a ConfigError naming the file or the setting.
"""

from __future__ import annotations

import json
from contextlib import suppress
from functools import partial
from pathlib import Path

from .errors import ConfigError


def read_text(path: str | Path, what: str) -> str:
    """The text of the file at `path`; bytes that are not UTF-8 are a ConfigError naming the file."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as err:
        raise ConfigError(f"{path}: not a UTF-8 {what}: {err}") from err


def read_json_file(path: str | Path):
    """The JSON document in the file at `path`; a file that is not JSON is a ConfigError."""
    text = read_text(path, "JSON file")
    try:
        return json.loads(text)
    except json.JSONDecodeError as err:
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


def number(kind: type, value, what: str):
    """`value` as an int or a float: the one rule for what a config number is.

    A bool or a string is not a number, and an int setting rejects a
    non-integral value instead of truncating it (9.0 reads as 9). Anything
    else `kind` cannot convert is a ConfigError too.
    """
    if isinstance(value, str):  # int("3") and float("1.5") would read a string as a number
        raise ConfigError(f"{what} {value!r} is not a number")
    if isinstance(value, bool) or kind is int and isinstance(value, float) and not value.is_integer():
        raise ConfigError(f"{what} {value!r} is not {'an integer' if kind is int else 'a number'}")
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError) as err:
        raise ConfigError(f"{what} {value!r} is not a number") from err


integer = partial(number, int)
real = partial(number, float)


def element_id(value, what: str) -> int:
    """`value` as an element id: the one rule for what spells one.

    An int setting's value (3.0 reads as 3), or text spelled exactly as `str`
    writes an int: not '+1', '01', '1_0', ' 3' or '\u0663', which `int` reads.
    """
    with suppress(ValueError):
        if isinstance(value, str) and str(int(value)) == value:
            return int(value)
    return integer(value, what)  # any other text is not a number


def read(doc: dict, keys: dict, prefix: str) -> dict:
    """Keyword arguments for the keys of `keys` that `doc` holds.

    `keys` maps a config key to (field name, reader); the reader gets the
    value and the setting's name, `prefix` + key. A key `doc` does not hold
    is left out, so its field keeps the dataclass default.
    """
    return {field: reader(doc[key], prefix + key) for key, (field, reader) in keys.items() if key in doc}
