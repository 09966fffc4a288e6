"""The one place that reads the pipeline's input files and writes and reads its artifacts.

Every file is UTF-8; a leading byte-order mark is ignored. Every writer
replaces its target atomically: the text goes to ``<name>.tmp`` beside the
target, which ``os.replace`` then moves over it, so a reader sees the old file
or the new one, never a partial write. Lines go in one at a time as they are
made, with no whole-file string and no encoded copy. A file that cannot be
written, read, decoded or built is a ``ConfigurationError`` that names the
file and, for JSONL, the line. :func:`from_json` builds the declared type a
JSON object holds.
"""

from __future__ import annotations

import dataclasses
import enum
import inspect
import json
import os
import re
import types
import typing
from collections.abc import Callable, Iterable
from pathlib import Path
from typing import Any, TypeVar

from .errors import ConfigurationError

__all__ = [
    "write_text", "write_json", "write_jsonl", "read_text", "read_json", "read_jsonl",
    "typed", "required", "reject_unknown", "from_json",
]

T = TypeVar("T")

# what parsing a record or building an object from it raises on bad input
_CORRUPT = (ValueError, KeyError, TypeError, AttributeError, ConfigurationError)
# json.dumps(record, ensure_ascii=False), without building an encoder per record
_JSONL_ENCODE = json.JSONEncoder(ensure_ascii=False).encode
_JSON_TYPES = {
    bool: "true or false", int: "an integer", float: "a number", str: "a string", dict: "an object",
}


def write_text(path: str | Path, text: str | Iterable[str]) -> None:
    """Write ``text``, a string or strings taken one by one, as UTF-8, byte for byte."""
    target = Path(path)
    tmp = target.with_name(target.name + ".tmp")
    try:
        target.parent.mkdir(parents=True, exist_ok=True)
        try:
            with open(tmp, "w", encoding="utf-8", newline="") as handle:
                handle.writelines((text,) if isinstance(text, str) else text)
            os.replace(tmp, target)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
    except OSError as exc:
        raise ConfigurationError(f"cannot write {target}: {exc}") from None


def write_json(path: str | Path, obj: Any) -> None:
    write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def write_jsonl(path: str | Path, records: Iterable[Any]) -> None:
    write_text(path, (_JSONL_ENCODE(r) + "\n" for r in records))


def read_text(path: str | Path, kind: str) -> str:
    """The text of input file ``path``, a ``kind`` such as ``gold file``."""
    source = Path(path)
    if not source.is_file():
        raise ConfigurationError(f"{kind} not found: {source}")
    try:
        return source.read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"corrupt {kind} {source}: {exc}") from None


def _reason(exc: Exception) -> str:
    """Why a record is corrupt: our own message as is, other errors with their class."""
    return str(exc) if isinstance(exc, ConfigurationError) else repr(exc)


def _decode(text: str) -> Any:
    """The JSON value ``text`` holds; one it cannot decode is an error by its text."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        # bad JSON, an integer past Python's digit limit, or nesting past the recursion limit
        raise ConfigurationError(str(exc)) from None


def read_json(path: str | Path, kind: str, build: Callable[[Any], T]) -> T:
    """Parse one JSON document and return ``build`` of it."""
    source = Path(path)
    text = read_text(source, kind)
    try:
        return build(_decode(text))
    except _CORRUPT as exc:
        raise ConfigurationError(f"corrupt {kind} {source}: {_reason(exc)}") from None


def read_jsonl(path: str | Path, kind: str, build: Callable[[Any], T]) -> list[T]:
    """Return ``build`` of each non-blank line's JSON record, in file order.

    Lines end at ``\\n`` alone: a JSON string may hold U+2028 or U+0085 as it is,
    which ``str.splitlines`` would take for a line end.
    """
    source = Path(path)
    out: list[T] = []
    for lineno, line in enumerate(read_text(source, kind).split("\n"), 1):
        if not line.strip():
            continue
        try:
            out.append(build(_decode(line)))
        except _CORRUPT as exc:
            raise ConfigurationError(
                f"corrupt {kind} {source}, line {lineno}: {_reason(exc)}"
            ) from None
    return out


def _expected(kind: object) -> str:
    """What a JSON value must be to fit field type ``kind``, e.g. ``a list of strings``."""
    if isinstance(kind, enum.EnumMeta):
        return "one of " + ", ".join(member.value for member in kind)
    if dataclasses.is_dataclass(kind) or typing.get_origin(kind) is dict:
        return "an object"
    if typing.get_origin(kind) is tuple:
        item, *rest = typing.get_args(kind)
        count = "" if rest == [...] else f"{len(rest) + 1} "
        # "a string" -> "strings", "a list of 3 strings" -> "lists of 3 strings"
        return f"a list of {count}" + re.sub(r"^an? (\w+)", r"\1s", _expected(item))
    return _JSON_TYPES[kind]


def typed(key: str, value: object, hint: object) -> object:
    """JSON ``value`` of key ``key`` if it fits the field type ``hint``.

    An int field takes no bool; a float field also takes an int, as a float;
    ``null`` fits only an optional field; an enum field takes a member's
    value; a ``tuple[...]`` field takes a list, and a ``dict[str, T]`` or
    dataclass field an object, each checked item by item.
    """
    kinds = typing.get_args(hint) if isinstance(hint, types.UnionType) else (hint,)
    kind = kinds[0]
    if (value is None and type(None) in kinds) or type(value) is kind:
        return value
    if kind is float and type(value) is int:
        return float(value)
    if isinstance(kind, enum.EnumMeta) and value in [member.value for member in kind]:
        return kind(value)
    if dataclasses.is_dataclass(kind):
        return from_json(kind, value, key)
    if typing.get_origin(kind) is dict and type(value) is dict:
        item = typing.get_args(kind)[1]
        return {name: typed(f"{key}.{name}", v, item) for name, v in value.items()}
    if typing.get_origin(kind) is tuple and type(value) is list:
        items = typing.get_args(kind)
        if items[1:] == (...,):
            items = items[:1] * len(value)
        if len(items) == len(value):
            return tuple(typed(f"{key}[{i}]", *pair) for i, pair in enumerate(zip(value, items)))
    expected = _expected(kind) + (" or null" if type(None) in kinds else "")
    raise ConfigurationError(f"{key} must be {expected}, got {json.dumps(value)[:200]}")


def required(obj: dict, prefix: str, key: str, hint: object = object) -> object:
    """``obj[key]``, found at ``prefix + key``; it must be present and fit ``hint``, if given."""
    if key not in obj:
        raise ConfigurationError(f"{prefix}{key} is required")
    return obj[key] if hint is object else typed(prefix + key, obj[key], hint)


def reject_unknown(prefix: str, obj: dict, valid: Iterable[str]) -> None:
    """Raise unless every key of ``obj`` is in ``valid``; the error names ``prefix + key``."""
    unknown = sorted(obj.keys() - set(valid))
    if unknown:
        raise ConfigurationError(
            f"unknown key {prefix}{unknown[0]}; valid keys: {', '.join(sorted(valid))}"
        )


def from_json(cls: type[T], obj: object, key: str = "", paths: tuple[str, ...] = (), **fixed) -> T:
    """Build the dataclass or NamedTuple ``cls`` from the JSON object ``obj`` found at ``key``.

    ``paths`` are keys of ``obj`` that the caller reads itself, and ``fixed``
    the fields it built from them. Every other key must name a field of
    ``cls`` and hold a value of its type; an absent key takes the field's
    default, or is an error if the field has none, and ``cls.__post_init__``
    checks the ranges. The first fault is raised: a wrong type in the
    object's own key order, an undeclared key, a missing field in field order.
    """
    if type(obj) is not dict:
        where = key or "the top level"
        raise ConfigurationError(f"{where} must be an object, got {json.dumps(obj)[:200]}")
    prefix = f"{key}." if key else ""
    hints = typing.get_type_hints(cls)
    declared = hints.keys() - fixed.keys() - set(paths)
    values = {k: typed(prefix + k, v, hints[k]) for k, v in obj.items() if k in declared}
    reject_unknown(prefix, obj, declared | set(paths))
    for name, parameter in inspect.signature(cls).parameters.items():
        if parameter.default is parameter.empty and name not in values and name not in fixed:
            raise ConfigurationError(f"{prefix}{name} is required")
    try:
        return cls(**fixed, **values)
    except ConfigurationError as exc:
        # every range check's message starts with the field's name
        raise ConfigurationError(f"{prefix}{exc}") from None
