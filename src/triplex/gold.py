"""Expert benchmark loading.

Gold files are UTF-8 CSV with a ``subject,predicate,object`` header and
optional leading ``#`` comment lines (``# annotator: name`` is recognised).
Fields pass through the same normalization as extracted triples so the two
sides of every comparison are prepared identically.
"""

from __future__ import annotations

import csv
import io
import logging
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

from .artifacts import read_text
from .errors import GoldValidationError
from .extraction import _FIELD_NAMES, normalize_field

__all__ = ["GoldTriple", "GoldSet", "load_gold"]

logger = logging.getLogger(__name__)


class GoldTriple(NamedTuple):
    subject: str
    predicate: str
    object: str


@dataclass(frozen=True)
class GoldSet:
    """A normalized, duplicate-free benchmark."""

    triples: tuple[GoldTriple, ...]
    annotator: str = ""
    duplicates_collapsed: int = 0

    def __len__(self) -> int:
        return len(self.triples)


def load_gold(path: str | Path) -> GoldSet:
    """Load and normalize a gold CSV.

    Rows with any empty field are fatal and reported together with their row
    numbers; so is a file with no triple rows. Duplicate triples (after
    normalization) collapse to the first occurrence with a logged warning.
    """
    source = Path(path)
    if not source.is_file():
        raise GoldValidationError(f"gold file not found: {source}")
    text = read_text(source, "gold file")
    annotator = ""
    data_lines: list[tuple[int, str]] = []
    for number, line in enumerate(text.splitlines(), start=1):
        if line.lstrip().startswith("#"):
            comment = line.lstrip()[1:].strip()
            if comment.lower().startswith("annotator:"):
                annotator = comment.split(":", 1)[1].strip()
            continue
        if line.strip():
            data_lines.append((number, line))
    if not data_lines:
        raise GoldValidationError(f"gold file {source} has no header row")

    header_number, header_line = data_lines[0]
    header = next(csv.reader(io.StringIO(header_line)))
    columns = [c.strip().lower() for c in header]
    missing = [c for c in _FIELD_NAMES if c not in columns]
    if missing:
        raise GoldValidationError(
            f"gold file {source} header (row {header_number}) lacks columns: "
            f"{', '.join(missing)}"
        )
    idx = {c: columns.index(c) for c in _FIELD_NAMES}

    triples: list[GoldTriple] = []
    seen: set[GoldTriple] = set()
    empty_rows: list[str] = []
    duplicates = 0
    for number, line in data_lines[1:]:
        row = next(csv.reader(io.StringIO(line)))
        if len(row) < len(columns):
            row = row + [""] * (len(columns) - len(row))
        fields = {name: normalize_field(row[idx[name]]) for name in _FIELD_NAMES}
        empty = [name for name in _FIELD_NAMES if not fields[name]]
        if empty:
            empty_rows.append(f"row {number}: empty {', '.join(empty)}")
            continue
        triple = GoldTriple(**fields)
        if triple in seen:
            duplicates += 1
            logger.warning("gold file %s row %d duplicates %s", source, number, triple)
            continue
        seen.add(triple)
        triples.append(triple)
    if empty_rows:
        raise GoldValidationError(
            f"gold file {source} has empty fields: " + "; ".join(empty_rows)
        )
    if not triples:
        raise GoldValidationError(f"gold file {source} has no triples")
    return GoldSet(
        triples=tuple(triples),
        annotator=annotator,
        duplicates_collapsed=duplicates,
    )
