"""Parse model output into triples and assemble extraction runs.

The line grammar is deliberately small: a triple is three ``|``-separated
fields, with or without wrapping parentheses, or a quoted 3-tuple. Anything
else is rejected with a reason instead of raising, because model output is
untrusted input.
"""

from __future__ import annotations

import functools
import re
import typing
from contextlib import closing
from dataclasses import dataclass
from itertools import groupby
from json.encoder import encode_basestring
from operator import add, itemgetter
from pathlib import Path
from typing import NamedTuple

from .artifacts import from_json, read_json, read_jsonl, required, typed, write_json, write_text
from .corpus import CorpusIndex, PreprocessConfig, chunk_document
from .defaults import default_generic_terms
from .errors import ConfigurationError, ExtractionError, TransportError
from .llmclient import LlmClient
from .prompting import ExampleBank, PromptTemplates, PromptVariant, build_prompt

__all__ = [
    "TripleCandidate",
    "Triple",
    "ExtractionRun",
    "parse_triples",
    "normalize_field",
    "flag_generic",
    "refine_generic",
    "dedupe_and_cap",
    "chunk_corpus",
    "run_extraction",
    "write_run",
    "read_run",
    "DEFAULT_TRIPLE_CAP",
]

DEFAULT_TRIPLE_CAP = 1000
COMPLEX_PREDICATE_TOKENS = 4

_QUOTED_TUPLE_RE = re.compile(
    r"""^\(?\s*(['"])(?P<s>.*?)\1\s*,\s*(['"])(?P<p>.*?)\3\s*,\s*(['"])(?P<o>.*?)\5\s*\)?\s*[.,;]?\s*$"""
)
# one chunk of a document: (doc_id, article_id, chunk_index, text)
Chunk = tuple[str, str, int, str]
# no closer is ".", so at most one of normalize_field's strip rules fits a text
_WRAPPER_PAIRS = frozenset({("(", ")"), ("[", "]"), ('"', '"'), ("'", "'"), ("‘", "’"), ("“", "”")})
# bounds normalize_field's memo: full, it holds about 11 MB for fields of 35 characters
_NORMALIZE_CACHE_SIZE = 1 << 16

REFINEMENT_PROMPT = """Rewrite the triple below so that every generic term names its specific referent.
Generic terms: {terms}
Use the text to identify the specific named entities the generic terms stand for.
Respond with exactly one line in the format: (subject | predicate | object)

Original triple: ({s} | {p} | {o})

Text:
{chunk}"""


class TripleCandidate(NamedTuple):
    """A raw parsed triple before normalization."""

    subject: str
    predicate: str
    object: str
    source_line: str
    line_number: int


class Triple(NamedTuple):
    """A normalized triple with provenance and generic-term flags."""

    subject: str
    predicate: str
    object: str
    doc_id: str
    article_id: str
    chunk_index: int
    variant: PromptVariant
    generic_subject: bool = False
    generic_object: bool = False


@dataclass
class ExtractionRun:
    """One variant's pass over a corpus."""

    variant: PromptVariant
    triples: list[Triple]
    stats: dict[str, int]
    endpoint_fingerprint: str
    prompt_fingerprint: str


# the counts run_extraction takes from each chunk, in the order the chunk gives them
_CHUNK_COUNTS = (
    "chunks_processed", "chunks_failed", "lines_seen", "lines_parsed", "lines_rejected",
    "generic_flagged", "refined_count", "refine_failures", "complex_predicates",
)
_FAILED_CHUNK = tuple(int(key == "chunks_failed") for key in _CHUNK_COUNTS)


def _empty_stats() -> dict[str, int]:
    # dedupe_and_cap's two counts follow the chunks', summed over the run's documents
    return dict.fromkeys((*_CHUNK_COUNTS, "duplicates_removed", "capped_count"), 0)


def parse_triples(raw_text: str) -> tuple[list[TripleCandidate], list[tuple[int, str, str]]]:
    """Split ``raw_text`` into candidates and rejections.

    Returns ``(candidates, rejections)`` where each rejection is
    ``(line_number, line, reason)``. Total: every line lands in exactly one
    of the two lists, and no input ever raises.
    """
    candidates: list[TripleCandidate] = []
    rejections: list[tuple[int, str, str]] = []
    for number, raw_line in enumerate(raw_text.splitlines(), start=1):
        line = raw_line.strip()
        if not line:
            rejections.append((number, raw_line, "blank line"))
            continue
        if "|" in line:
            body = line.rstrip(".,;")
            if body.startswith("(") and body.endswith(")"):
                body = body[1:-1]
            fields = body.split("|")
            if len(fields) != 3:
                rejections.append(
                    (number, raw_line, f"expected 3 fields separated by '|', got {len(fields)}")
                )
                continue
        else:
            quoted = _QUOTED_TUPLE_RE.match(line)
            if not quoted:
                rejections.append((number, raw_line, "not a recognizable triple line"))
                continue
            fields = quoted.group("s", "p", "o")
        s, p, o = fields
        s, p, o = s.strip(), p.strip(), o.strip()
        if s and p and o:
            candidates.append(TripleCandidate(s, p, o, raw_line, number))
            continue
        empty = [name for name, field in zip(TripleCandidate._fields, (s, p, o)) if not field]
        rejections.append((number, raw_line, f"empty {', '.join(empty)}"))
    return candidates, rejections


@functools.lru_cache(maxsize=_NORMALIZE_CACHE_SIZE)
def normalize_field(value: str) -> str:
    """Lowercase, collapse whitespace, strip wrapping quotes/parens and trailing periods.

    Idempotent: normalizing an already normalized value changes nothing.
    Memoized: a value seen before returns the result string of its first call.
    """
    text = value.strip()
    while text:
        if len(text) >= 2 and (text[0], text[-1]) in _WRAPPER_PAIRS:
            text = text[1:-1].strip()
        elif text[-1] == ".":
            text = text.rstrip(".").strip()
        else:
            break
    return " ".join(text.split()).lower()


def flag_generic(field_value: str, lexicon: frozenset[str] | None = None) -> bool:
    """True when a normalized field equals a known generic term."""
    terms = lexicon if lexicon is not None else default_generic_terms()
    return field_value in terms


# the fields refinement may replace, in the order their terms enter the prompt
_GENERIC_FIELDS = ("subject", "object")


def refine_generic(
    triples: list[Triple],
    chunk_text: str,
    client: LlmClient,
    lexicon: frozenset[str] | None = None,
) -> tuple[list[Triple], int, int]:
    """Ask the model to replace generic subjects/objects, one follow-up per triple.

    A replacement field is accepted only when it parses and is itself
    non-generic; otherwise the original field survives with its flag.
    Triples without a generic flag pass through untouched. Returns
    ``(triples, refined_count, failures)``; the triple count never changes.
    """
    terms = lexicon if lexicon is not None else default_generic_terms()
    refined: list[Triple] = []
    refined_count = 0
    failures = 0
    for triple in triples:
        generic = [name for name in _GENERIC_FIELDS if getattr(triple, f"generic_{name}")]
        if generic:
            prompt = REFINEMENT_PROMPT.format(
                terms="; ".join(getattr(triple, name) for name in generic),
                s=triple.subject,
                p=triple.predicate,
                o=triple.object,
                chunk=chunk_text,
            )
            try:
                candidates, _ = parse_triples(client.complete(prompt))
            except TransportError:
                failures += 1
                candidates = []
            changes = {}
            for name in generic if candidates else ():
                replacement = normalize_field(getattr(candidates[0], name))
                accepted = replacement and not flag_generic(replacement, terms)
                if accepted and replacement != getattr(triple, name):
                    changes[name] = replacement
            if changes:
                refined_count += 1
                # an accepted replacement is non-generic; a field not replaced keeps its flag
                triple = triple._replace(**changes, **{f"generic_{n}": False for n in changes})
        refined.append(triple)
    return refined, refined_count, failures


def dedupe_and_cap(
    triples: list[Triple], cap: int = DEFAULT_TRIPLE_CAP
) -> tuple[list[Triple], int, int]:
    """Drop repeated (subject, predicate, object) per document, then cap per document.

    Both passes keep first occurrences in input order. Returns
    ``(kept, duplicates_removed, capped_count)``.
    """
    seen: set[tuple[str, str, str, str]] = set()
    per_doc: dict[str, int] = {}
    kept: list[Triple] = []
    duplicates = 0
    capped = 0
    for triple in triples:
        key = (triple.doc_id, triple.subject, triple.predicate, triple.object)
        if key in seen:
            duplicates += 1
            continue
        seen.add(key)
        count = per_doc.get(triple.doc_id, 0)
        if count >= cap:
            capped += 1
            continue
        per_doc[triple.doc_id] = count + 1
        kept.append(triple)
    return kept, duplicates, capped


def chunk_corpus(corpus: CorpusIndex, preprocess_config: PreprocessConfig) -> list[Chunk]:
    """Every chunk of every document, as (doc_id, article_id, chunk_index, text).

    Sorted by (doc_id, article_id, chunk_index), the order
    :func:`run_extraction` takes and merges chunks in.
    """
    chunks = [
        (doc.doc_id, article_id, chunk_index, text)
        for doc in corpus.documents
        for article_id, chunk_index, text in chunk_document(doc, preprocess_config)
    ]
    # document order is not key order: an article after a chapter sorts before the chapter's
    chunks.sort(key=lambda chunk: chunk[:3])
    return chunks


def run_extraction(
    chunks: list[Chunk],
    variant: PromptVariant,
    bank: ExampleBank,
    client: LlmClient,
    templates: PromptTemplates | None = None,
    generic_lexicon: frozenset[str] | None = None,
    cap: int = DEFAULT_TRIPLE_CAP,
) -> ExtractionRun:
    """Extract triples from every chunk of :func:`chunk_corpus` with one variant.

    The prompt's fixed part is rendered once; each chunk only fills in
    ``{{chunk}}``. Chunks go through :meth:`LlmClient.map` (on the calling
    thread for every mock client) and merge in the order given, so repeated
    runs produce identical output whatever the worker count. A document's
    chunks must come together, as :func:`chunk_corpus` gives them: its triples
    are deduped and capped once its last chunk is in, so one document's are
    held at a time. A chunk whose request ultimately fails is recorded in the
    stats and skipped; the run only fails when every chunk does. Any other
    error stops the run: no worker takes a new chunk after it, and the error
    raised is that of the first failing chunk in that order.
    """
    templates = templates or PromptTemplates.default()
    lexicon = generic_lexicon if generic_lexicon is not None else default_generic_terms()
    stats = _empty_stats()
    run = ExtractionRun(
        variant=variant,
        triples=[],
        stats=stats,
        endpoint_fingerprint=client.config.fingerprint(),
        prompt_fingerprint=templates.fingerprint(variant),
    )
    if not chunks:
        return run

    def process(chunk: Chunk) -> tuple[list[Triple], tuple[int, ...]]:
        doc_id, article_id, chunk_index, text = chunk
        prompt = build_prompt(variant, bank, text, templates)
        try:
            reply = client.complete(prompt.text)
        except TransportError:
            return [], _FAILED_CHUNK
        candidates, rejections = parse_triples(reply)
        triples: list[Triple] = []
        flagged = complex_predicates = 0
        for s, p, o, _, _ in candidates:
            s, p, o = normalize_field(s), normalize_field(p), normalize_field(o)
            if s and p and o:
                generic_s, generic_o = s in lexicon, o in lexicon
                triples.append(
                    Triple(s, p, o, doc_id, article_id, chunk_index, variant, generic_s, generic_o)
                )
                flagged += generic_s or generic_o
                # refinement replaces subjects and objects only, so the predicate counts now
                complex_predicates += len(p.split()) > COMPLEX_PREDICATE_TOKENS
        refined_count = refine_failures = 0
        if variant is PromptVariant.NEGATIVE_EXAMPLES and flagged:
            triples, refined_count, refine_failures = refine_generic(triples, text, client, lexicon)
        lines_seen = len(candidates) + len(rejections)
        # refinement never changes the triple count, so every line not kept was rejected
        parsed = len(triples)
        return triples, (
            1, 0, lines_seen, parsed, lines_seen - parsed,
            flagged, refined_count, refine_failures, complex_predicates,
        )

    totals = [0] * len(_CHUNK_COUNTS)
    finished: set[str] = set()
    # closed on any error, so no worker takes another chunk while a traceback holds the map
    with closing(client.map(process, chunks)) as results:
        for doc_id, group in groupby(zip(map(itemgetter(0), chunks), results), key=itemgetter(0)):
            if doc_id in finished:
                raise ValueError(f"chunks of document {doc_id!r} come after another document's")
            finished.add(doc_id)
            doc_triples: list[Triple] = []
            for _, (triples, counts) in group:
                doc_triples += triples
                totals = [*map(add, totals, counts)]
            kept, duplicates, capped = dedupe_and_cap(doc_triples, cap)
            run.triples += kept
            stats["duplicates_removed"] += duplicates
            stats["capped_count"] += capped
    stats.update(zip(_CHUNK_COUNTS, totals))
    if stats["chunks_failed"] == len(chunks):
        raise ExtractionError(
            f"all {len(chunks)} chunks failed; last resort is checking the endpoint"
        )
    return run


_TRIPLE_FIELDS = Triple._fields
_TRIPLE_HINTS = typing.get_type_hints(Triple)
_TRIPLE_KEYS = frozenset(_TRIPLE_FIELDS)
# a record's value for an absent key: the field's default, or None, whose type fits no field
_FIELD_DEFAULTS = tuple(map(Triple._field_defaults.get, _TRIPLE_FIELDS))
# the type of each value in a valid record, in field order; the variant is stored as its name
_RECORD_TYPES = [
    str if _TRIPLE_HINTS[name] is PromptVariant else _TRIPLE_HINTS[name] for name in _TRIPLE_FIELDS
]
_VARIANT_AT = _TRIPLE_FIELDS.index("variant")
_VARIANT_NAMED = {v.value: v for v in PromptVariant}
# each field type's value as json.dumps(..., ensure_ascii=False) writes it; an int fills a %d
_JSON_VALUE = {
    str: encode_basestring,
    int: int,
    bool: {True: "true", False: "false"}.__getitem__,
    PromptVariant: {v: encode_basestring(v.value) for v in PromptVariant}.__getitem__,
}
_FIELD_ENCODERS = [_JSON_VALUE[_TRIPLE_HINTS[name]] for name in _TRIPLE_FIELDS]
# json.dumps(record, ensure_ascii=False) of a triple's record, every field in declared order
_RUN_LINE = "{%s}\n" % ", ".join(
    f"{encode_basestring(name)}: {'%d' if _TRIPLE_HINTS[name] is int else '%s'}"
    for name in _TRIPLE_FIELDS
)


class _RunMeta(NamedTuple):
    """A run's ``.stats.json`` sidecar, as write_run writes it; a run without one reads as this."""

    variant: PromptVariant = None  # None only when absent: a sidecar's variant is never null
    stats: dict[str, int] = {}  # read only; read_run merges it into the zero counts
    endpoint_fingerprint: str = ""
    prompt_fingerprint: str = ""


def write_run(run: ExtractionRun, path: str | Path) -> None:
    """Write a run as JSONL (one triple per line) plus a ``.stats.json`` sidecar."""
    target = Path(path)
    # one lazy column per field, so each line is encoded from its triple as it is written
    columns = [map(f, map(itemgetter(i), run.triples)) for i, f in enumerate(_FIELD_ENCODERS)]
    write_text(target, map(_RUN_LINE.__mod__, zip(*columns)))
    write_json(
        target.with_suffix(".stats.json"),
        {
            "variant": run.variant.value,
            "stats": run.stats,
            "endpoint_fingerprint": run.endpoint_fingerprint,
            "prompt_fingerprint": run.prompt_fingerprint,
        },
    )


def read_run(path: str | Path) -> ExtractionRun:
    """Rehydrate a run written by :func:`write_run`.

    The run's variant is its sidecar's; a run without a sidecar takes its
    first record's, and one without records is named by its file stem. A
    record naming another variant makes the run corrupt, and so does a
    sidecar counting other than the triples the run holds, as for a run cut
    short at a line boundary, and so does a field of the wrong type or a
    subject, predicate or object that is empty or whitespace only.
    """
    target = Path(path)
    sidecar = target.with_suffix(".stats.json")
    has_sidecar = sidecar.is_file()
    meta = _RunMeta()
    if has_sidecar:
        meta = read_json(sidecar, "run stats file", functools.partial(from_json, _RunMeta))
    variant = meta.variant

    def triple(record: object) -> Triple:
        # one test of the keys, one of the value types, one of the variant and one of the
        # subject, predicate and object, the first three fields, which no embedder takes blank
        nonlocal variant
        if type(record) is dict and record.keys() <= _TRIPLE_KEYS:
            values = [*map(record.get, _TRIPLE_FIELDS, _FIELD_DEFAULTS)]
            if [*map(type, values)] == _RECORD_TYPES:
                named = values[_VARIANT_AT] = _VARIANT_NAMED.get(values[_VARIANT_AT])
                variant = variant or named  # without a sidecar, the first record names it
                if named is variant and named is not None:
                    if values[0].strip() and values[1].strip() and values[2].strip():
                        return Triple(*values)
        # refused: the first fault of no object, a missing or unknown variant, another run's
        # variant, then a wrong type, an undeclared key or a missing field, as from_json
        # finds, then a blank subject, predicate or object
        record = typed("the record", record, dict)
        named = PromptVariant(required(record, "", "variant"))
        if variant is not None and named is not variant:
            raise ConfigurationError(f"record names {named.value}, the run {variant.value}")
        loaded = from_json(Triple, record)  # valid but for the blank the fast path found
        blank = next(name for name, value in zip(_TRIPLE_FIELDS, loaded[:3]) if not value.strip())
        raise ConfigurationError(f"{blank} is empty")

    triples = read_jsonl(target, "run file", triple)
    stats = {**_empty_stats(), **meta.stats}
    # the triples written: every parsed line less those dedupe_and_cap dropped
    kept = stats["lines_parsed"] - stats["duplicates_removed"] - stats["capped_count"]
    if has_sidecar and kept != len(triples):
        raise ConfigurationError(
            f"corrupt run file {target}: holds {len(triples)} triples, its stats say {kept}"
        )
    meta = meta._replace(variant=variant or PromptVariant(target.stem), stats=stats)
    return ExtractionRun(triples=triples, **meta._asdict())
