"""Trade agreement corpus: XML ingestion, preprocessing, and chunking.

A corpus is a directory of XML files, one agreement per file. Elements whose
tag name contains ``article`` or ``chapter`` (case-insensitive) are treated as
text units; party names come from metadata elements when present, then from
the ``<partyA>-<partyB>*.xml`` filename pattern, and are otherwise left
unknown rather than invented.
"""

from __future__ import annotations

import re
import xml.etree.ElementTree as ET
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field, replace
from functools import cached_property
from pathlib import Path

from .artifacts import read_jsonl, required, typed, write_jsonl
from .defaults import default_filler_terms, default_stopwords
from .errors import ConfigurationError

__all__ = [
    "ArticleUnit",
    "AgreementDocument",
    "CorpusIndex",
    "PreprocessConfig",
    "load_corpus",
    "preprocess",
    "preprocess_document",
    "preprocess_index",
    "chunk_document",
    "chunk_text",
    "write_corpus_jsonl",
    "read_corpus_jsonl",
]

MIN_CHUNK_CHARS = 200
DEFAULT_MAX_CHUNK_CHARS = 4000

# split by tokens, kept: the text before each token, the token, ..., the text after the last
_TOKEN_SPLIT = re.compile(r"(\w+|[^\w\s]+)")
_SENTENCE_SPLIT = re.compile(r"(?<=[.!?])\s+")
_UNIT_TAG_RE = re.compile(r"article|chapter", re.IGNORECASE)


@dataclass(frozen=True)
class ArticleUnit:
    """One article or chapter worth of text from an agreement."""

    article_id: str
    raw_text: str
    clean_text: str = ""


@dataclass(frozen=True)
class AgreementDocument:
    """A single agreement: its parties, sector tags, and text units."""

    doc_id: str
    party_a: str | None
    party_b: str | None
    sectors: tuple[str, ...]
    articles: tuple[ArticleUnit, ...]


@dataclass(frozen=True)
class CorpusIndex:
    """All documents loaded from one source directory, plus load failures."""

    documents: tuple[AgreementDocument, ...]
    load_errors: tuple[tuple[str, str], ...] = ()


@dataclass(frozen=True)
class PreprocessConfig:
    """Settings for text cleaning and chunking."""

    stopwords: frozenset[str] = field(default_factory=default_stopwords)
    domain_filler_terms: frozenset[str] = field(default_factory=default_filler_terms)
    lowercase: bool = False
    collapse_whitespace: bool = True
    max_chunk_chars: int = DEFAULT_MAX_CHUNK_CHARS

    def __post_init__(self) -> None:
        if self.max_chunk_chars < MIN_CHUNK_CHARS:
            raise ConfigurationError(
                f"max_chunk_chars must be at least {MIN_CHUNK_CHARS}, "
                f"got {self.max_chunk_chars}"
            )

    @cached_property  # built once per config: not a field, so ==, hash and replace ignore it
    def removal_terms(self) -> frozenset[str]:
        return self.stopwords | self.domain_filler_terms


def _local_tag(tag: str) -> str:
    # ElementTree uses "{namespace}tag" for namespaced elements; ET.parse drops
    # comments and processing instructions, so every tag is a string
    return tag.rsplit("}", 1)[-1].lower()


def _collect_units(root: ET.Element) -> list[tuple[str, str]]:
    """The ``(path, text)`` leaf text units of ``root`` and its descendants, in document order.

    A chapter that contains articles contributes a path component; only the
    innermost article/chapter elements yield text, so no passage is counted
    twice. Units are numbered per tag under their nearest enclosing unit: a
    non-unit wrapper shares its parent's counters, so no two units get the
    same path. The walk keeps its own stack, so nesting depth is not bounded
    by Python's recursion limit.
    """
    out: list[tuple[str, str]] = []
    # each frame: the elements left to visit, the path and per-tag counters of
    # the unit enclosing them, and that unit if these are its children
    stack: list[tuple[Iterator[ET.Element], str, dict[str, int], ET.Element | None]] = [
        (iter([root]), "", {}, None)  # the root is labelled like any other unit
    ]
    while stack:
        elems, prefix, counters, unit = stack[-1]
        elem = next(elems, None)
        if elem is None:
            stack.pop()
            # a unit holding units yields theirs (it counted them, blank ones
            # included); only a leaf unit yields its own text
            if unit is not None and not counters:
                text = "".join(unit.itertext())
                if text.strip():
                    out.append((prefix, text))
            continue
        tag = _local_tag(elem.tag)
        if _UNIT_TAG_RE.search(tag):
            counters[tag] = counters.get(tag, 0) + 1
            label = f"{tag}:{counters[tag]:03d}"
            stack.append((iter(elem), f"{prefix}/{label}" if prefix else label, {}, elem))
        else:
            stack.append((iter(elem), prefix, counters, None))
    return out


def _tag_texts(root: ET.Element, word: str) -> list[str]:
    """Whitespace-collapsed, non-empty text of each element whose tag contains ``word``."""
    texts = (
        " ".join("".join(elem.itertext()).split())
        for elem in root.iter()
        if word in _local_tag(elem.tag)
    )
    return [text for text in texts if text]


def _extract_parties(root: ET.Element, filename: str) -> tuple[str | None, str | None]:
    names = _tag_texts(root, "party")
    if not names:
        # <partyA>-<partyB>*.xml fallback; numeric segments are years, not parties
        stem = Path(filename).stem
        names = [seg for seg in stem.split("-") if seg and not seg.isdigit()]
    party_a = names[0] if names else None
    party_b = next((n for n in names[1:] if n != party_a), None)
    return party_a, party_b


def _extract_sectors(root: ET.Element) -> tuple[str, ...]:
    texts = _tag_texts(root, "sector")
    parts = (part.strip().lower() for text in texts for part in re.split(r"[,;]", text))
    return tuple(sorted({part for part in parts if part}))


def _parse_file(path: Path) -> AgreementDocument:
    root = ET.parse(path).getroot()
    units = _collect_units(root)
    party_a, party_b = _extract_parties(root, path.name)
    return AgreementDocument(
        doc_id=path.stem,
        party_a=party_a,
        party_b=party_b,
        sectors=_extract_sectors(root),
        articles=tuple(ArticleUnit(article_id, text) for article_id, text in units),
    )


def load_corpus(source_dir: str | Path, limit: int | None = None) -> CorpusIndex:
    """Load every ``*.xml`` file under ``source_dir`` (non-recursive).

    Files are visited in lexicographic order; ``limit`` keeps only the first
    N of them. A file that fails to parse becomes a ``load_errors`` entry
    instead of aborting the load, so the number of documents plus the number
    of errors always equals the number of files scanned.
    """
    directory = Path(source_dir)
    if not directory.is_dir():
        raise ConfigurationError(f"corpus directory not found: {directory}")
    files = sorted(directory.glob("*.xml"), key=lambda p: p.name)
    if limit is not None:
        files = files[: max(limit, 0)]
    documents: list[AgreementDocument] = []
    errors: list[tuple[str, str]] = []
    for path in files:
        try:
            documents.append(_parse_file(path))
        except ET.ParseError as exc:
            errors.append((path.name, f"XML parse error: {exc}"))
        except OSError as exc:
            errors.append((path.name, f"read error: {exc}"))
    documents.sort(key=lambda d: d.doc_id)
    return CorpusIndex(documents=tuple(documents), load_errors=tuple(errors))


def preprocess(text: str, config: PreprocessConfig) -> str:
    """Remove stopwords and treaty boilerplate from ``text``.

    Tokens are maximal runs of word characters or of punctuation; a token is
    dropped when its lowercase form is in the removal set. Remaining tokens
    keep their original order, so the function never introduces new tokens
    and applying it twice gives the same result as applying it once.
    """
    removal = config.removal_terms
    parts = _TOKEN_SPLIT.split(text)
    pieces: list[str] = []
    sep = ""  # the text since the last kept token, removed tokens left out
    for gap, token in zip(parts[::2], parts[1::2]):
        sep += gap
        lowered = token.lower()
        if lowered in removal:
            continue
        if pieces:
            pieces.append((" " if sep else "") if config.collapse_whitespace else sep)
        sep = ""
        pieces.append(lowered if config.lowercase else token)
    return "".join(pieces)


def preprocess_document(doc: AgreementDocument, config: PreprocessConfig) -> AgreementDocument:
    """Return a copy of ``doc`` with ``clean_text`` filled for every article."""
    articles = tuple(
        replace(article, clean_text=preprocess(article.raw_text, config))
        for article in doc.articles
    )
    return replace(doc, articles=articles)


def preprocess_index(index: CorpusIndex, config: PreprocessConfig) -> CorpusIndex:
    documents = tuple(preprocess_document(doc, config) for doc in index.documents)
    return replace(index, documents=documents)


def _pack(pieces: Iterable[str], max_chars: int) -> list[str]:
    """Join consecutive ``pieces`` with a space while the result fits in ``max_chars``.

    A piece longer than ``max_chars`` (an unbroken run longer than a whole
    chunk) is hard-cut into parts of ``max_chars`` first.
    """
    packed: list[str] = []
    current = ""
    for piece in pieces:
        parts = (piece,)
        if len(piece) > max_chars:
            parts = [piece[i : i + max_chars] for i in range(0, len(piece), max_chars)]
        for part in parts:
            candidate = f"{current} {part}" if current else part
            if len(candidate) > max_chars:
                packed.append(current)
                candidate = part
            current = candidate
    if current:
        packed.append(current)
    return packed


def chunk_text(text: str, max_chars: int) -> list[str]:
    """Split ``text`` at sentence boundaries into chunks of at most ``max_chars``."""
    pieces: list[str] = []
    for sentence in _SENTENCE_SPLIT.split(text):
        if len(sentence) > max_chars:
            pieces.extend(_pack(sentence.split(" "), max_chars))
        elif sentence:
            pieces.append(sentence)
    return [c for c in _pack(pieces, max_chars) if c.strip()]


def chunk_document(
    doc: AgreementDocument, config: PreprocessConfig
) -> list[tuple[str, int, str]]:
    """Return ``(article_id, chunk_index, chunk_text)`` tuples for one document.

    An article's ``clean_text`` is used when present; otherwise its raw text
    is preprocessed with ``config`` first, so both freshly loaded and cached
    corpora chunk the same way. Joining the chunks of an article with a
    single space reproduces its clean text up to whitespace.
    """
    out: list[tuple[str, int, str]] = []
    for article in doc.articles:
        text = article.clean_text or preprocess(article.raw_text, config)
        for i, chunk in enumerate(chunk_text(text, config.max_chunk_chars)):
            out.append((article.article_id, i, chunk))
    return out


def _document_record(doc: AgreementDocument) -> dict:
    return {
        "doc_id": doc.doc_id,
        "party_a": doc.party_a,
        "party_b": doc.party_b,
        "sectors": list(doc.sectors),
        "articles": [
            {"article_id": a.article_id, "clean_text": a.clean_text}
            for a in doc.articles
        ],
    }


def _document(record: object) -> AgreementDocument:
    """The document one cache line holds; each key must be present and of its field's type."""
    record = typed("the record", record, dict)
    return AgreementDocument(
        doc_id=required(record, "", "doc_id", str),
        party_a=required(record, "", "party_a", str | None),
        party_b=required(record, "", "party_b", str | None),
        sectors=required(record, "", "sectors", tuple[str, ...]),
        articles=tuple(
            ArticleUnit(
                required(a, f"articles[{i}].", "article_id", str),
                raw_text="",
                clean_text=required(a, f"articles[{i}].", "clean_text", str),
            )
            for i, a in enumerate(required(record, "", "articles", tuple[dict, ...]))
        ),
    )


def write_corpus_jsonl(index: CorpusIndex, path: str | Path) -> None:
    """Write one JSON object per document, in doc_id order, UTF-8."""
    write_jsonl(path, map(_document_record, index.documents))


def read_corpus_jsonl(path: str | Path) -> CorpusIndex:
    """Rehydrate a corpus cache written by :func:`write_corpus_jsonl`.

    The cache stores clean text only, so ``raw_text`` comes back empty.
    """
    documents = read_jsonl(path, "corpus cache", _document)
    documents.sort(key=lambda d: d.doc_id)
    return CorpusIndex(documents=tuple(documents))
