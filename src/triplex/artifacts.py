"""The one place that encodes, writes and reads back the pipeline's files.

Every writer replaces its target atomically: the text goes to
``<name>.tmp`` beside the target, which ``os.replace`` then moves over it, so
a reader sees the old file or the new one, never a partial write. Every
reader turns a decoding or building failure into a ``ConfigurationError``
that names the kind of artifact, the file and, for JSONL, the line.
"""

from __future__ import annotations

import json
import os
from collections.abc import Callable, Iterable
from pathlib import Path
from typing import Any, TypeVar

from .errors import ConfigurationError

__all__ = ["write_text", "write_json", "write_jsonl", "read_json", "read_jsonl"]

T = TypeVar("T")

# what parsing a record or building an object from it raises on bad input
_CORRUPT = (ValueError, KeyError, TypeError, AttributeError, ConfigurationError)
# json.dumps(record, ensure_ascii=False), without building an encoder per record
_JSONL_ENCODE = json.JSONEncoder(ensure_ascii=False).encode


def write_text(path: str | Path, text: str) -> None:
    """Write ``text`` as UTF-8, byte for byte (no newline translation)."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    tmp = target.with_name(target.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        os.replace(tmp, target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(path: str | Path, obj: Any) -> None:
    write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def write_jsonl(path: str | Path, records: Iterable[Any]) -> None:
    write_text(path, "".join(_JSONL_ENCODE(r) + "\n" for r in records))


def _read(source: Path, kind: str) -> str:
    if not source.is_file():
        raise ConfigurationError(f"{kind} not found: {source}")
    try:
        return source.read_text(encoding="utf-8")
    except ValueError as exc:
        raise ConfigurationError(f"corrupt {kind} {source}: {exc!r}") from None


def read_json(path: str | Path, kind: str, build: Callable[[Any], T]) -> T:
    """Parse one JSON document and return ``build`` of it."""
    source = Path(path)
    text = _read(source, kind)
    try:
        return build(json.loads(text))
    except _CORRUPT as exc:
        raise ConfigurationError(f"corrupt {kind} {source}: {exc!r}") from None


def read_jsonl(path: str | Path, kind: str, build: Callable[[Any], T]) -> list[T]:
    """Return ``build`` of each non-blank line's JSON record, in file order."""
    source = Path(path)
    out: list[T] = []
    for lineno, line in enumerate(_read(source, kind).splitlines(), 1):
        if not line.strip():
            continue
        try:
            out.append(build(json.loads(line)))
        except _CORRUPT as exc:
            raise ConfigurationError(
                f"corrupt {kind} {source}, line {lineno}: {exc!r}"
            ) from None
    return out
