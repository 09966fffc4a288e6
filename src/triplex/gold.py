"""Expert benchmark loading.

Gold files are UTF-8 CSV with a ``subject,predicate,object`` header and
optional leading ``#`` comment lines (``# annotator: name`` is recognised).
Fields pass through the same normalization as extracted triples so the two
sides of every comparison are prepared identically.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

from .artifacts import read_text
from .errors import GoldValidationError
from .extraction import normalize_field

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
    annotator = ""
    rows: list[tuple[int, list[str]]] = []
    for number, line in enumerate(read_text(source, "gold file").splitlines(), start=1):
        if line.lstrip().startswith("#"):
            comment = line.lstrip()[1:].strip()
            if comment.lower().startswith("annotator:"):
                annotator = comment.split(":", 1)[1].strip()
        elif line.strip():
            rows.append((number, next(csv.reader([line]))))
    if not rows:
        raise GoldValidationError(f"gold file {source} has no header row")

    (header_number, header), *rows = rows
    columns = [c.strip().lower() for c in header]
    missing = [c for c in GoldTriple._fields if c not in columns]
    if missing:
        raise GoldValidationError(
            f"gold file {source} header (row {header_number}) lacks columns: "
            f"{', '.join(missing)}"
        )
    idx = [columns.index(c) for c in GoldTriple._fields]

    # insertion-ordered, so the first occurrence of each triple keeps its place
    triples: dict[GoldTriple, None] = {}
    empty_rows: list[str] = []
    duplicates = 0
    for number, row in rows:
        row += [""] * (len(columns) - len(row))  # a short row's missing cells read as empty
        triple = GoldTriple(*(normalize_field(row[i]) for i in idx))
        empty = [name for name, value in zip(GoldTriple._fields, triple) if not value]
        if empty:
            empty_rows.append(f"row {number}: empty {', '.join(empty)}")
        elif triple in triples:
            duplicates += 1
            logger.warning("gold file %s row %d duplicates %s", source, number, triple)
        else:
            triples[triple] = None
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
