"""Output parsing, normalization, generic-term refinement, dedupe/cap, full runs."""

from __future__ import annotations

import gc
import json
import re
import sys
import threading
import time
import tracemalloc
from dataclasses import replace
from itertools import groupby
from operator import attrgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triplex import extraction
from triplex.corpus import (
    AgreementDocument,
    ArticleUnit,
    CorpusIndex,
    PreprocessConfig,
    chunk_document,
    load_corpus,
)
from triplex.errors import ConfigurationError, ExtractionError, TransportError
from triplex.gold import GoldTriple
from triplex.extraction import (
    DEFAULT_TRIPLE_CAP,
    REFINEMENT_PROMPT,
    ExtractionRun,
    Triple,
    TripleCandidate,
    chunk_corpus,
    dedupe_and_cap,
    flag_generic,
    normalize_field,
    parse_triples,
    read_run,
    refine_generic,
    run_extraction,
    write_run,
)
from triplex.llmclient import EndpointConfig, LlmClient, MockTransport, make_client, mock_embedding
from triplex.prompting import PromptTemplates, PromptVariant

from oracles import parse_triples_oracle


def make_triple(s, p, o, doc="doc", generic_subject=False, generic_object=False):
    return Triple(
        subject=s,
        predicate=p,
        object=o,
        doc_id=doc,
        article_id="article:001",
        chunk_index=0,
        variant=PromptVariant.NEGATIVE_EXAMPLES,
        generic_subject=generic_subject,
        generic_object=generic_object,
    )


class ScriptedTransport:
    """Returns a fixed chat reply (or per-prompt replies via a callable)."""

    def __init__(self, reply):
        self.reply = reply
        self.prompts: list[str] = []

    def chat(self, prompt_text: str) -> str:
        self.prompts.append(prompt_text)
        if callable(self.reply):
            return self.reply(prompt_text)
        return self.reply

    def embed(self, texts):
        return [mock_embedding(text) for text in texts]


def scripted_client(reply, max_parallel=4) -> LlmClient:
    config = EndpointConfig(max_parallel_requests=max_parallel)
    return LlmClient(config, ScriptedTransport(reply))


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "line,expected",
    [
        ("(Japan | signed | the Protocol)", ("Japan", "signed", "the Protocol")),
        ("Japan | signed | the Protocol", ("Japan", "signed", "the Protocol")),
        ("(Japan | signed | the Protocol).", ("Japan", "signed", "the Protocol")),
        ("(Japan|signed|the Protocol);", ("Japan", "signed", "the Protocol")),
        ("'Parties', 'signed','contract'", ("Parties", "signed", "contract")),
        ('("Canada", "exports", "wheat")', ("Canada", "exports", "wheat")),
        ("('EU', 'grants', 'access')", ("EU", "grants", "access")),
    ],
)
def test_parse_accepts_triple_shapes(line, expected):
    candidates, rejections = parse_triples(line)
    assert rejections == []
    assert len(candidates) == 1
    candidate = candidates[0]
    assert (candidate.subject, candidate.predicate, candidate.object) == expected
    assert candidate.source_line == line
    assert candidate.line_number == 1


@pytest.mark.parametrize(
    "line,reason_fragment",
    [
        ("   ", "blank line"),
        ("Here are the triples:", "not a recognizable triple line"),
        ("(Japan | signed)", "got 2"),
        ("(a | b | c | d)", "got 4"),
        ("(Japan | | duties)", "empty predicate"),
        ("( | signed | duties)", "empty subject"),
        ("(Japan | signed | )", "empty object"),
        ("' ', 'signed','contract'", "empty subject"),
        ("( | | ).", "empty subject, predicate, object"),
        ("('', 'signed', \" \")", "empty subject, object"),
        ("(\"Japan\", '', 'duties')", "empty predicate"),
        ("Japan exports goods", "not a recognizable triple line"),
    ],
)
def test_parse_rejects_with_reasons(line, reason_fragment):
    candidates, rejections = parse_triples(line)
    assert candidates == []
    assert len(rejections) == 1
    number, raw, reason = rejections[0]
    assert number == 1
    assert raw == line
    assert reason_fragment in reason


def test_parse_sample_fixture_hand_labels(parse_sample_text):
    candidates, rejections = parse_triples(parse_sample_text)
    assert len(candidates) == 7
    assert len(rejections) == 13
    assert [c.line_number for c in candidates] == [2, 4, 5, 7, 11, 13, 17]
    assert [(c.subject, c.predicate, c.object) for c in candidates] == [
        ("Japan", "signed", "the Protocol on Rules of Origin"),
        ("Thailand", "ratifies", "the Protocol"),
        ("Parties", "signed", "contract"),
        ("Canada", "exports", "wheat products"),
        ("Chile", "exports", "copper products"),
        ("European Union", "grants", "preferential market access"),
        ("Norway", "grants", "duty free treatment"),
    ]
    reasons = {number: reason for number, _, reason in rejections}
    assert set(reasons) == {1, 3, 6, 8, 9, 10, 12, 14, 15, 16, 18, 19, 20}
    assert reasons[3] == "blank line"
    assert reasons[6] == "empty predicate"
    assert reasons[8] == "expected 3 fields separated by '|', got 2"
    assert reasons[15] == "expected 3 fields separated by '|', got 4"
    assert reasons[1] == "not a recognizable triple line"


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=400))
def test_parse_is_total_and_partitions_lines(raw):
    candidates, rejections = parse_triples(raw)
    assert len(candidates) + len(rejections) == len(raw.splitlines())
    taken = sorted([c.line_number for c in candidates] + [n for n, _, _ in rejections])
    assert taken == list(range(1, len(raw.splitlines()) + 1))
    for candidate in candidates:
        assert candidate.subject and candidate.predicate and candidate.object


# the grammar's marks, and the line breaks splitlines honours beyond "\n", so drawn replies hold
# triples, near misses, empty fields and blank lines
_REPLY_PIECES = st.sampled_from(
    ["|", " | ", "(", ")", "'", '"', ",", ".", ";", " ", "\t", "\n", "\r\n", "\n\n", "\x1c",
     "\u2028", "Japan", "exports", "(Japan | exports | cars).", "('a', 'b', 'c')", "( | x | )"]
)


@settings(max_examples=500, deadline=None)
@given(st.lists(_REPLY_PIECES | st.text(max_size=3), max_size=40).map("".join))
def test_parse_triples_matches_the_reference(raw):
    assert parse_triples(raw) == parse_triples_oracle(raw)


# ---------------------------------------------------------------------------
# normalization and generic terms
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "raw,expected",
    [
        ("  The  Parties ", "the parties"),
        ("SIGNED", "signed"),
        ("contract.", "contract"),
        ('"customs duties"', "customs duties"),
        ("'(import tariffs)'", "import tariffs"),
        ("((nested))", "nested"),
        ("“curly quotes”", "curly quotes"),
        ("free  trade\tagreement", "free trade agreement"),
        ("...", ""),
        ("", ""),
    ],
)
def test_normalize_field_examples(raw, expected):
    assert normalize_field(raw) == expected


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=60))
def test_normalize_field_is_idempotent(value):
    once = normalize_field(value)
    assert normalize_field(once) == once
    assert once == once.strip().lower()


def test_flag_generic_uses_bundled_lexicon():
    for term in ("the parties", "parties", "it", "they", "this", "the agreement"):
        assert flag_generic(term)
    for term in ("japan", "customs duties", "european union"):
        assert not flag_generic(term)


def test_flag_generic_accepts_custom_lexicon():
    lexicon = frozenset({"someone"})
    assert flag_generic("someone", lexicon)
    assert not flag_generic("the parties", lexicon)


# ---------------------------------------------------------------------------
# refinement
# ---------------------------------------------------------------------------

CHUNK = "Japan and Thailand signed the agreement covering customs duties."


def test_refinement_prompt_carries_terms_triple_and_chunk():
    prompt = REFINEMENT_PROMPT.format(
        terms="the parties", s="the parties", p="signed", o="contract", chunk=CHUNK
    )
    assert prompt.startswith("Rewrite the triple below")
    assert "Generic terms: the parties" in prompt
    assert "Original triple: (the parties | signed | contract)" in prompt
    assert prompt.endswith(f"Text:\n{CHUNK}")


def test_refine_generic_replaces_flagged_fields(mock_client):
    triples = [make_triple("the parties", "signed", "contract", generic_subject=True)]
    refined, refined_count, failures = refine_generic(triples, CHUNK, mock_client)
    assert (refined_count, failures) == (1, 0)
    assert len(refined) == 1
    replacement = refined[0]
    assert replacement.subject == "japan and thailand"
    assert replacement.generic_subject is False
    assert replacement.predicate == "signed"
    assert replacement.object == "contract"


def test_refine_generic_passes_unflagged_triples_through(mock_client):
    untouched = make_triple("japan", "signed", "contract")
    flagged = make_triple("the parties", "signed", "contract", generic_subject=True)
    refined, refined_count, failures = refine_generic(
        [untouched, flagged], CHUNK, mock_client
    )
    assert refined_count == 1
    assert failures == 0
    assert refined[0] is untouched  # identical object, not a copy
    assert len(refined) == len([untouched, flagged])


def test_refine_generic_keeps_original_when_reply_is_still_generic():
    client = scripted_client("(they | signed | contract)")
    triples = [make_triple("the parties", "signed", "contract", generic_subject=True)]
    refined, refined_count, failures = refine_generic(triples, CHUNK, client)
    assert (refined_count, failures) == (0, 0)
    assert refined[0].subject == "the parties"
    assert refined[0].generic_subject is True


def test_refine_generic_keeps_original_when_reply_is_unparseable():
    client = scripted_client("no triple here at all")
    triples = [make_triple("the parties", "signed", "contract", generic_subject=True)]
    refined, refined_count, failures = refine_generic(triples, CHUNK, client)
    assert (refined_count, failures) == (0, 0)
    assert refined[0].subject == "the parties"


def test_refine_generic_counts_transport_failures():
    class DownTransport:
        def chat(self, prompt_text: str) -> str:
            raise TransportError("down")

        def embed(self, texts):
            return [mock_embedding(text) for text in texts]

    client = LlmClient(EndpointConfig(), DownTransport())
    triples = [make_triple("the parties", "signed", "contract", generic_subject=True)]
    refined, refined_count, failures = refine_generic(triples, CHUNK, client)
    assert (refined_count, failures) == (0, 1)
    assert refined[0].subject == "the parties"


def test_refine_generic_clears_only_the_replaced_fields_flag():
    client = scripted_client("(Japan | signed | the agreement)")
    triples = [
        make_triple(
            "the parties", "signed", "the agreement", generic_subject=True, generic_object=True
        )
    ]
    refined, refined_count, failures = refine_generic(triples, CHUNK, client)
    assert (refined_count, failures) == (1, 0)
    assert (refined[0].subject, refined[0].object) == ("japan", "the agreement")
    assert refined[0].generic_subject is False
    assert refined[0].generic_object is True


def test_refine_generic_replaces_object_too(mock_client):
    triples = [
        make_triple("japan", "signed", "the agreement", generic_object=True),
    ]
    refined, refined_count, _ = refine_generic(triples, CHUNK, mock_client)
    assert refined_count == 1
    assert refined[0].object == "japan and thailand"
    assert refined[0].generic_object is False


# ---------------------------------------------------------------------------
# dedupe and cap
# ---------------------------------------------------------------------------


def test_dedupe_keeps_first_occurrence_per_document():
    a1 = make_triple("japan", "signed", "x", doc="a")
    a2 = make_triple("japan", "signed", "x", doc="a")
    b1 = make_triple("japan", "signed", "x", doc="b")
    kept, duplicates, capped = dedupe_and_cap([a1, a2, b1])
    assert kept == [a1, b1]  # same triple in another document is not a duplicate
    assert (duplicates, capped) == (1, 0)


def test_cap_applies_per_document_after_dedupe():
    triples = [make_triple("s", f"p{i}", "o", doc="a") for i in range(5)]
    triples += [make_triple("s", f"p{i}", "o", doc="b") for i in range(3)]
    kept, duplicates, capped = dedupe_and_cap(triples, cap=3)
    assert duplicates == 0
    assert capped == 2
    assert [t.predicate for t in kept if t.doc_id == "a"] == ["p0", "p1", "p2"]
    assert len([t for t in kept if t.doc_id == "b"]) == 3


def test_dedupe_and_cap_empty_input():
    assert dedupe_and_cap([]) == ([], 0, 0)


def test_default_cap_value():
    assert DEFAULT_TRIPLE_CAP == 1000


_DEDUPE_ROWS = st.lists(
    st.tuples(st.sampled_from("abc"), st.integers(0, 3), *[st.sampled_from("xyz")] * 3),
    max_size=40,
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(rows=_DEDUPE_ROWS, cap=st.integers(1, 5))
def test_one_dedupe_and_cap_per_document_keeps_what_one_call_over_the_run_keeps(rows, cap):
    # in chunk_corpus order: by document, then chunk, each chunk's lines in reply order
    triples = [
        make_triple(s, p, o, doc=doc)._replace(chunk_index=chunk)
        for doc, chunk, s, p, o in sorted(rows, key=lambda row: row[:2])
    ]
    per_doc = [
        dedupe_and_cap([*doc_triples], cap)
        for _, doc_triples in groupby(triples, key=attrgetter("doc_id"))
    ]
    kept = [triple for doc_kept, _, _ in per_doc for triple in doc_kept]
    duplicates = sum(doc_duplicates for _, doc_duplicates, _ in per_doc)
    capped = sum(doc_capped for _, _, doc_capped in per_doc)
    assert (kept, duplicates, capped) == dedupe_and_cap(triples, cap)


# ---------------------------------------------------------------------------
# full runs
# ---------------------------------------------------------------------------


def test_run_matches_golden(bank, mock_client, small_chunks_config, fixture_dir, golden_dir, tmp_path):
    corpus = load_corpus(fixture_dir / "corpus", limit=2)
    run = run_extraction(
        chunk_corpus(corpus, small_chunks_config), PromptVariant.ZERO_SHOT, bank, mock_client
    )
    out = tmp_path / "zero-shot-run.jsonl"
    write_run(run, out)
    assert out.read_bytes() == (golden_dir / "zero-shot-run.jsonl").read_bytes()
    assert (
        (tmp_path / "zero-shot-run.stats.json").read_bytes()
        == (golden_dir / "zero-shot-run.stats.json").read_bytes()
    )


def test_run_stats_line_accounting(bank, mock_client, small_chunks_config, corpus_dir):
    chunks = chunk_corpus(load_corpus(corpus_dir), small_chunks_config)
    for variant in PromptVariant:
        run = run_extraction(chunks, variant, bank, mock_client)
        stats = run.stats
        assert stats["lines_parsed"] + stats["lines_rejected"] == stats["lines_seen"]
        assert stats["chunks_failed"] == 0
        assert stats["chunks_processed"] > 0
        assert len(run.triples) == stats["lines_parsed"] - stats["duplicates_removed"] - stats["capped_count"]


def test_run_is_deterministic(bank, mock_client, small_chunks_config, corpus_dir):
    chunks = chunk_corpus(load_corpus(corpus_dir), small_chunks_config)
    first = run_extraction(chunks, PromptVariant.FEW_SHOT, bank, mock_client)
    second = run_extraction(chunks, PromptVariant.FEW_SHOT, bank, mock_client)
    assert first.triples == second.triples
    assert first.stats == second.stats
    assert first.endpoint_fingerprint == second.endpoint_fingerprint
    assert first.prompt_fingerprint == second.prompt_fingerprint


def test_run_results_sorted_by_provenance(bank, mock_client, small_chunks_config, corpus_dir):
    corpus = load_corpus(corpus_dir)
    run = run_extraction(
        chunk_corpus(corpus, small_chunks_config), PromptVariant.ONE_SHOT, bank, mock_client
    )
    keys = [(t.doc_id, t.article_id, t.chunk_index) for t in run.triples]
    assert keys == sorted(keys)


def test_refinement_only_runs_for_the_negative_variant(
    bank, mock_client, small_chunks_config, corpus_dir
):
    chunks = chunk_corpus(load_corpus(corpus_dir), small_chunks_config)
    for variant in (PromptVariant.ZERO_SHOT, PromptVariant.ONE_SHOT, PromptVariant.FEW_SHOT):
        run = run_extraction(chunks, variant, bank, mock_client)
        assert run.stats["refined_count"] == 0
        assert run.stats["refine_failures"] == 0
    negative = run_extraction(chunks, PromptVariant.NEGATIVE_EXAMPLES, bank, mock_client)
    assert negative.stats["refined_count"] > 0


def test_empty_corpus_returns_empty_run(bank, mock_client, small_chunks_config):
    corpus = CorpusIndex(documents=())
    run = run_extraction(
        chunk_corpus(corpus, small_chunks_config), PromptVariant.ZERO_SHOT, bank, mock_client
    )
    assert run.triples == []
    assert run.stats["chunks_processed"] == 0
    assert run.stats["lines_seen"] == 0


def test_junk_only_replies_reject_every_line(bank, small_chunks_config, corpus_dir):
    client = scripted_client("no triples in here\njust chatter")
    corpus = load_corpus(corpus_dir)
    run = run_extraction(
        chunk_corpus(corpus, small_chunks_config), PromptVariant.ZERO_SHOT, bank, client
    )
    assert run.triples == []
    assert run.stats["lines_seen"] > 0
    assert run.stats["lines_rejected"] == run.stats["lines_seen"]
    assert run.stats["lines_parsed"] == 0
    assert run.stats["chunks_failed"] == 0


def test_a_line_that_normalizes_to_an_empty_field_counts_as_rejected(bank, small_chunks_config):
    client = scripted_client("(Japan | signed | cars)\n(... | signed | Japan)\nchatter")
    corpus = synthetic_corpus(["Japan signed an agreement on cars."])
    run = run_extraction(
        chunk_corpus(corpus, small_chunks_config), PromptVariant.ZERO_SHOT, bank, client
    )
    assert [(t.subject, t.predicate, t.object) for t in run.triples] == [("japan", "signed", "cars")]
    stats = run.stats
    assert (stats["lines_seen"], stats["lines_parsed"], stats["lines_rejected"]) == (3, 1, 2)


def test_all_chunks_failing_raises_extraction_error(bank, small_chunks_config, corpus_dir):
    class DownTransport:
        def chat(self, prompt_text: str) -> str:
            raise TransportError("down")

        def embed(self, texts):
            return [mock_embedding(text) for text in texts]

    client = LlmClient(EndpointConfig(), DownTransport())
    corpus = load_corpus(corpus_dir)
    with pytest.raises(ExtractionError):
        run_extraction(
            chunk_corpus(corpus, small_chunks_config), PromptVariant.ZERO_SHOT, bank, client
        )


def test_single_chunk_failure_is_recorded_not_fatal(bank, small_chunks_config, corpus_dir):
    corpus = load_corpus(corpus_dir, limit=1)
    failures = {"armed": True}

    def reply(prompt_text: str) -> str:
        if failures["armed"]:
            failures["armed"] = False
            raise TransportError("first chunk fails")
        return "(Canada | exports | wheat)"

    client = scripted_client(reply, max_parallel=1)
    run = run_extraction(
        chunk_corpus(corpus, small_chunks_config), PromptVariant.ZERO_SHOT, bank, client
    )
    assert run.stats["chunks_failed"] == 1
    assert run.stats["chunks_processed"] >= 1
    assert run.triples


def test_complex_predicate_counter(bank, small_chunks_config, corpus_dir):
    client = scripted_client(
        "(Japan | agrees to cooperate closely on all matters | Thailand)"
    )
    corpus = load_corpus(corpus_dir, limit=1)
    run = run_extraction(
        chunk_corpus(corpus, small_chunks_config), PromptVariant.ZERO_SHOT, bank, client
    )
    assert run.stats["complex_predicates"] == run.stats["chunks_processed"]
    assert run.stats["duplicates_removed"] > 0  # same reply per chunk dedupes


def synthetic_corpus(texts) -> CorpusIndex:
    """One single-article document per text, already cleaned."""
    return CorpusIndex(
        documents=tuple(
            AgreementDocument(
                doc_id=f"doc-{i:03d}",
                party_a=None,
                party_b=None,
                sectors=(),
                articles=(ArticleUnit(article_id="article:001", raw_text=text, clean_text=text),),
            )
            for i, text in enumerate(texts)
        ),
    )


@pytest.mark.parametrize("rejected", ["every", "first"])
def test_fatal_error_stops_extraction_promptly(rejected, bank, small_chunks_config):
    class RejectingTransport:
        """Rejects every chat, or only the first one once a second is in flight."""

        def __init__(self):
            self.calls = 0
            self._lock = threading.Lock()
            self._second = threading.Event()

        def chat(self, prompt_text: str) -> str:
            with self._lock:
                self.calls += 1
                call = self.calls
            if rejected == "every":
                raise ConfigurationError("endpoint rejected request (400)")
            if call == 1:
                self._second.wait(timeout=5)
                raise ConfigurationError("endpoint rejected request (400)")
            self._second.set()
            time.sleep(0.005)
            return "(Japan | exports | cars)"

        def embed(self, texts):
            return [mock_embedding(text) for text in texts]

    transport = RejectingTransport()
    client = LlmClient(EndpointConfig(max_parallel_requests=2), transport)
    corpus = synthetic_corpus(f"Japan exports {i} cars to Thailand." for i in range(120))
    with pytest.raises(ConfigurationError):
        run_extraction(
            chunk_corpus(corpus, small_chunks_config), PromptVariant.ZERO_SHOT, bank, client
        )
    assert 1 <= transport.calls <= 4


def test_two_fatal_chunks_raise_the_first_failing_chunks_error(bank, small_chunks_config):
    """Chunk 2 fails first in time, chunk 1 first in key order: the error is chunk 1's."""
    script = {"chunk 0": (0.05, False), "chunk 1": (0.2, True), "chunk 2": (0.0, True)}

    def chat(prompt_text: str) -> str:
        chunk = prompt_text.rsplit("\nText:\n", 1)[-1].strip()
        delay_s, fails = script[chunk]
        time.sleep(delay_s)
        if fails:
            raise ConfigurationError(f"endpoint rejected {chunk}")
        return "(Japan | exports | cars)"

    client = scripted_client(chat, max_parallel=2)
    corpus = synthetic_corpus(script)
    with pytest.raises(ConfigurationError, match="^endpoint rejected chunk 1$"):
        run_extraction(
            chunk_corpus(corpus, small_chunks_config), PromptVariant.ZERO_SHOT, bank, client
        )


def reference_prompt(template: str, bank, chunk: str) -> str:
    """Plain slot replacement, in slot order, with {{chunk}} replaced last."""

    def positive(example):
        triples = "\n".join(f"({s} | {p} | {o})" for s, p, o in example.triples)
        return f"Text: {example.snippet}\nTriples:\n{triples}"

    slots = (
        ("{{definition}}", bank.ner_definition),
        ("{{focus_verbs}}", ", ".join(f'"{v}"' for v in bank.focus_verbs)),
        ("{{example}}", positive(bank.positive_examples[0])),
        ("{{more_examples}}", "\n\n".join(positive(ex) for ex in bank.positive_examples[1:])),
        (
            "{{negative_examples}}",
            "\n\n".join(
                f"({ex.triple[0]} | {ex.triple[1]} | {ex.triple[2]})\n"
                f"This is wrong because {ex.reason}."
                for ex in bank.negative_examples
            ),
        ),
        ("{{negated_instructions}}", "\n".join(f"- {i}" for i in bank.negated_instructions)),
        ("{{chunk}}", chunk),
    )
    for slot, value in slots:
        template = template.replace(slot, value)
    return template


def test_run_sends_byte_identical_prompts(bank, small_chunks_config, corpus_dir):
    templates = PromptTemplates.default()
    odd_bank = replace(bank, ner_definition=bank.ner_definition + " Never copy {{chunk}}.")
    corpus = load_corpus(corpus_dir, limit=1)
    odd_chunk = synthetic_corpus(["Quote {{definition}} and {{chunk}} as written."])
    corpus = replace(corpus, documents=corpus.documents + odd_chunk.documents)
    chunks = [
        text for doc in corpus.documents for _, _, text in chunk_document(doc, small_chunks_config)
    ]
    assert "Quote {{definition}} and {{chunk}} as written." in chunks
    for example_bank in (bank, odd_bank):
        for variant in PromptVariant:
            client = scripted_client("(Canada | exports | wheat)")
            run_extraction(
                chunk_corpus(corpus, small_chunks_config), variant, example_bank, client, templates
            )
            expected = [
                reference_prompt(templates.template(variant), example_bank, text)
                for text in chunks
            ]
            assert sorted(client.transport.prompts) == sorted(expected), variant


def test_worker_count_never_changes_the_run(bank, small_chunks_config, corpus_dir):
    chunks = chunk_corpus(load_corpus(corpus_dir), small_chunks_config)
    mock = MockTransport(seed=7)
    for variant in PromptVariant:
        runs = []
        for workers in (1, 4):
            client = scripted_client(mock.chat, max_parallel=workers)
            runs.append(run_extraction(chunks, variant, bank, client))
        serial, threaded = runs
        assert serial.triples == threaded.triples
        assert serial.stats == threaded.stats
        assert serial.stats["chunks_processed"] > 1


def test_one_worker_extract_runs_on_the_calling_thread(
    monkeypatch, bank, small_chunks_config, corpus_dir
):
    started: list[str] = []
    start = threading.Thread.start

    def record(thread: threading.Thread) -> None:
        started.append(thread.name)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", record)
    client = make_client(EndpointConfig(max_parallel_requests=4, seed=7), "mock")
    chunks = chunk_corpus(load_corpus(corpus_dir), small_chunks_config)
    run = run_extraction(chunks, PromptVariant.NEGATIVE_EXAMPLES, bank, client)
    assert run.stats["chunks_processed"] == len(chunks) > 1
    assert started == []


def test_many_workers_take_each_chunk_exactly_once(bank, small_chunks_config):
    texts = [f"Japan exports {i} cars to Thailand." for i in range(300)]
    client = scripted_client("(Japan | exports | cars)", max_parallel=8)
    chunks = chunk_corpus(synthetic_corpus(texts), small_chunks_config)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        run = run_extraction(chunks, PromptVariant.ZERO_SHOT, bank, client)
    finally:
        sys.setswitchinterval(interval)
    sent = sorted(p.rsplit("\nText:\n", 1)[-1].strip() for p in client.transport.prompts)
    assert sent == sorted(texts)
    assert run.stats["chunks_processed"] == len(texts)
    assert len(run.triples) == len(texts)


def test_run_extraction_dedupes_each_document_in_a_call_of_its_own(
    monkeypatch, bank, small_chunks_config, corpus_dir
):
    calls: list[set[str]] = []

    def recording(triples, cap=DEFAULT_TRIPLE_CAP):
        calls.append({triple.doc_id for triple in triples})
        return dedupe_and_cap(triples, cap)

    monkeypatch.setattr(extraction, "dedupe_and_cap", recording)
    chunks = chunk_corpus(load_corpus(corpus_dir), small_chunks_config)
    client = make_client(EndpointConfig(seed=7), "mock")
    run = run_extraction(chunks, PromptVariant.FEW_SHOT, bank, client)
    documents = sorted({doc_id for doc_id, *_ in chunks})
    assert len(documents) > 1
    assert calls == [{doc_id} for doc_id in documents]
    assert run.stats["duplicates_removed"] > 0


@pytest.mark.parametrize("workers", [1, 2])
def test_run_extraction_refuses_a_document_whose_chunks_come_after_another_documents(
    bank, workers
):
    chunks = [
        ("doc-a", "article:001", 0, "Japan exports cars."),
        ("doc-b", "article:001", 0, "Chile exports wine."),
        ("doc-a", "article:001", 1, "Japan imports wine."),
        *(("doc-c", "article:001", i, f"Peru exports {i} tons of copper.") for i in range(200)),
    ]
    client = scripted_client("(Japan | exports | cars)", max_parallel=workers)
    with pytest.raises(ValueError, match="^chunks of document 'doc-a' come after another"):
        run_extraction(chunks, PromptVariant.ZERO_SHOT, bank, client)
    sent = len(client.transport.prompts)
    if workers == 1:
        assert sent == 3  # on the calling thread, no chunk is sent before its turn
    time.sleep(0.05)
    assert len(client.transport.prompts) == sent  # every worker stopped before the error left


def _agreement(i: int, articles: int) -> AgreementDocument:
    party, other = ("Japan", "Chile", "Canada", "Norway")[i % 4], ("Peru", "Mexico")[i % 2]
    texts = [
        f"{party} shall eliminate Customs Duties on goods of {other} under Schedule {i} Part {k}."
        for k in range(articles)
    ]
    return AgreementDocument(
        doc_id=f"doc-{i:03d}",
        party_a=party,
        party_b=other,
        sectors=(),
        articles=tuple(
            ArticleUnit(article_id=f"article:{k:03d}", raw_text=text, clean_text=text)
            for k, text in enumerate(texts)
        ),
    )


def test_run_extraction_peaks_little_above_the_run_it_returns(bank):
    corpus = CorpusIndex(documents=tuple(_agreement(i, 8) for i in range(60)))
    chunks = chunk_corpus(corpus, PreprocessConfig(max_chunk_chars=200))
    client = make_client(EndpointConfig(seed=7), "mock")
    run_extraction(chunks, PromptVariant.FEW_SHOT, bank, client)  # fills normalize_field's memo
    gc.collect()
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before, _ = tracemalloc.get_traced_memory()
        run = run_extraction(chunks, PromptVariant.FEW_SHOT, bank, client)
        _, peak = tracemalloc.get_traced_memory()
        gc.collect()
        held, _ = tracemalloc.get_traced_memory()
    finally:
        if not tracing:
            tracemalloc.stop()
    assert run.stats["duplicates_removed"] > 0
    # holding every chunk's result and one key set over the whole run peaks about 2.6 times
    # above what the run holds; one document's dedupe state, about 0.2 times
    assert peak - held < (held - before) / 2


# ---------------------------------------------------------------------------
# run serialization
# ---------------------------------------------------------------------------


def test_write_read_round_trip(bank, mock_client, small_chunks_config, corpus_dir, tmp_path):
    corpus = load_corpus(corpus_dir, limit=2)
    run = run_extraction(
        chunk_corpus(corpus, small_chunks_config), PromptVariant.FEW_SHOT, bank, mock_client
    )
    path = tmp_path / "few-shot.jsonl"
    write_run(run, path)
    back = read_run(path)
    assert back.variant is run.variant
    assert back.triples == run.triples
    assert back.stats == run.stats
    assert back.endpoint_fingerprint == run.endpoint_fingerprint
    assert back.prompt_fingerprint == run.prompt_fingerprint


def test_read_run_without_sidecar_recovers_triples(
    bank, mock_client, small_chunks_config, corpus_dir, tmp_path
):
    corpus = load_corpus(corpus_dir, limit=1)
    run = run_extraction(
        chunk_corpus(corpus, small_chunks_config), PromptVariant.ONE_SHOT, bank, mock_client
    )
    path = tmp_path / "one-shot.jsonl"
    write_run(run, path)
    (tmp_path / "one-shot.stats.json").unlink()
    back = read_run(path)
    assert back.triples == run.triples
    assert back.variant is PromptVariant.ONE_SHOT
    assert back.endpoint_fingerprint == ""


@pytest.mark.parametrize("sidecar", [True, False], ids=["sidecar", "no sidecar"])
def test_read_run_rejects_a_record_naming_another_variant(
    bank, mock_client, small_chunks_config, corpus_dir, tmp_path, sidecar
):
    corpus = load_corpus(corpus_dir, limit=1)
    run = run_extraction(
        chunk_corpus(corpus, small_chunks_config), PromptVariant.ZERO_SHOT, bank, mock_client
    )
    path = tmp_path / "zero-shot.jsonl"
    write_run(run, path)
    if not sidecar:
        (tmp_path / "zero-shot.stats.json").unlink()
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[-1] = lines[-1].replace('"zero-shot"', '"one-shot"')
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    message = f"corrupt run file {path}, line {len(lines)}: record names one-shot, the run zero-shot"
    with pytest.raises(ConfigurationError, match=re.escape(message)):
        read_run(path)


def test_write_run_is_valid_jsonl(bank, mock_client, small_chunks_config, corpus_dir, tmp_path):
    corpus = load_corpus(corpus_dir, limit=2)
    run = run_extraction(
        chunk_corpus(corpus, small_chunks_config), PromptVariant.ZERO_SHOT, bank, mock_client
    )
    path = tmp_path / "run.jsonl"
    write_run(run, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == len(run.triples)
    for line in lines:
        record = json.loads(line)
        assert set(record) == {
            "subject", "predicate", "object", "doc_id", "article_id",
            "chunk_index", "variant", "generic_subject", "generic_object",
        }


def test_every_triple_shape_starts_with_the_gold_fields_and_a_run_line_keeps_field_order(
    tmp_path,
):
    assert Triple._fields[:3] == TripleCandidate._fields[:3] == GoldTriple._fields
    triple = make_triple("japan", "exports", "cars", generic_subject=True)
    path = tmp_path / "few-shot.jsonl"
    write_run(_run_of([triple._replace(variant=PromptVariant.FEW_SHOT)]), path)
    (line,) = path.read_text(encoding="utf-8").splitlines()
    assert tuple(json.loads(line)) == Triple._fields


# field text that JSON must escape or may leave as it is: quotes, backslashes, control
# characters, the Unicode line and paragraph separators and characters beyond the BMP
_awkward_text = st.one_of(
    st.text(max_size=12),
    st.text(alphabet='"\\\x00\x08\x1f\x7f\x85  é|\U0001f600\U00010348 a\n\r\t', max_size=12),
)
# read_run refuses a subject, predicate or object that is blank, which no embedder takes
_awkward_field = _awkward_text.filter(str.strip)
_triples = st.builds(
    Triple,
    subject=_awkward_field,
    predicate=_awkward_field,
    object=_awkward_field,
    doc_id=_awkward_text,
    article_id=_awkward_text,
    chunk_index=st.integers(min_value=-(2**70), max_value=2**70),
    variant=st.just(PromptVariant.FEW_SHOT),
    generic_subject=st.booleans(),
    generic_object=st.booleans(),
)


def _run_of(triples):
    # a sidecar that counts every triple as kept
    stats = {"lines_parsed": len(triples)}
    return ExtractionRun(PromptVariant.FEW_SHOT, triples, stats, "endpoint", "prompt")


@settings(max_examples=200, deadline=None)
@given(st.lists(_triples, max_size=6))
def test_write_run_lines_are_json_dumps_and_read_back_equal(tmp_path_factory, triples):
    path = tmp_path_factory.mktemp("run") / "few-shot.jsonl"
    write_run(_run_of(triples), path)
    lines = path.read_bytes().decode("utf-8").split("\n")
    assert lines.pop() == ""
    expected = [
        {**t._asdict(), "variant": t.variant.value}
        for t in triples
    ]
    assert lines == [json.dumps(record, ensure_ascii=False) for record in expected]
    back = read_run(path)
    assert back.variant is PromptVariant.FEW_SHOT
    assert back.triples == triples
    assert [type(t.chunk_index) for t in back.triples] == [int] * len(triples)


# the tail of the message for a key a record may not hold
_VALID_KEYS = (
    "; valid keys: article_id, chunk_index, doc_id, generic_object, generic_subject, object, "
    "predicate, subject, variant"
)


def _rewrite_second_record(path, edit) -> None:
    lines = path.read_text(encoding="utf-8").split("\n")
    lines[1] = json.dumps(edit(json.loads(lines[1])), ensure_ascii=False)
    path.write_text("\n".join(lines), encoding="utf-8")


def test_read_run_loads_a_record_with_its_keys_reordered(tmp_path):
    triples = [make_triple("japan", "exports", f"cars {i}") for i in range(3)]
    run = replace(_run_of(triples), variant=PromptVariant.NEGATIVE_EXAMPLES)
    path = tmp_path / "negative-examples.jsonl"
    write_run(run, path)
    _rewrite_second_record(path, lambda record: dict(reversed(record.items())))
    assert read_run(path).triples == triples


@pytest.mark.parametrize(
    "edit, reason",
    [
        (lambda record: {**record, "confidence": 0.9}, "unknown key confidence" + _VALID_KEYS),
        (lambda record: {**record, "chunk_index": True}, "chunk_index must be an integer, got true"),
        (lambda record: {k: v for k, v in record.items() if k != "object"}, "object is required"),
        (lambda record: {k: v for k, v in record.items() if k != "variant"}, "variant is required"),
    ],
    ids=["extra key", "true chunk_index", "missing object", "missing variant"],
)
def test_read_run_names_the_line_and_fault_of_a_record_write_run_would_not_write(
    tmp_path, edit, reason
):
    triples = [make_triple("japan", "exports", f"cars {i}") for i in range(3)]
    run = replace(_run_of(triples), variant=PromptVariant.NEGATIVE_EXAMPLES)
    path = tmp_path / "negative-examples.jsonl"
    write_run(run, path)
    _rewrite_second_record(path, edit)
    with pytest.raises(ConfigurationError) as caught:
        read_run(path)
    assert str(caught.value) == f"corrupt run file {path}, line 2: {reason}"


# a JSON value of each type, given in turn to each key of a record
_JSON_VALUES = {
    "string": "x", "integer": 7, "true": True, "float": 1.5, "null": None, "list": [], "object": {},
}
_RECORD_KEYS = Triple._fields


def _set(**values):
    return lambda record: {**record, **values}


def _without(*keys):
    return lambda record: {k: v for k, v in record.items() if k not in keys}


def _reversed(edit):
    return lambda record: dict(reversed(edit(record).items()))


_RECORD_EDITS = {
    **{
        f"{key} {kind}": _set(**{key: value})
        for key in _RECORD_KEYS
        for kind, value in _JSON_VALUES.items()
    },
    **{f"no {key}": _without(key) for key in _RECORD_KEYS},
    "no flags": _without("generic_subject", "generic_object"),
    "extra key": _set(note="x"),
    "extra key for a flag": lambda record: {**_without("generic_object")(record), "note": False},
    "extra key for both flags": lambda record: {
        **_without("generic_subject", "generic_object")(record), "note": "x"
    },
    "other variant": _set(variant="zero-shot"),
    "reordered, no generic_subject": _reversed(_without("generic_subject")),
    **{f"record {kind}": lambda record, value=value: value for kind, value in _JSON_VALUES.items()},
    "subject and chunk_index wrong": _set(subject=7, chunk_index="x"),
    "reversed, subject and chunk_index wrong": _reversed(_set(subject=7, chunk_index="x")),
    "extra key and subject wrong": _set(note="x", subject=7),
    "other variant and subject wrong": _set(variant="zero-shot", subject=7),
    "unknown variant and no subject": lambda record: {**_without("subject")(record), "variant": "x"},
    "no subject and no variant": _without("subject", "variant"),
    **{
        f"{key} {kind}": _set(**{key: value})
        for key in ("subject", "predicate", "object")
        for kind, value in (("empty", ""), ("blank", " \t\u3000"))
    },
    "subject empty and chunk_index wrong": _set(subject="", chunk_index="x"),
    "extra key and object blank": _set(note="x", object=" "),
    "other variant and predicate empty": _set(variant="zero-shot", predicate=""),
}
_VALID_NAMES = "; valid names: zero-shot, one-shot, few-shot, negative-examples"
# what read_run makes of the record of each edit: the fields it loads differently from the
# triple written, or the reason it gives for refusing the record
_READ_OUTCOMES = {
    "subject string": {"subject": "x"},
    "subject integer": "subject must be a string, got 7",
    "subject true": "subject must be a string, got true",
    "subject float": "subject must be a string, got 1.5",
    "subject null": "subject must be a string, got null",
    "subject list": "subject must be a string, got []",
    "subject object": "subject must be a string, got {}",
    "predicate string": {"predicate": "x"},
    "predicate integer": "predicate must be a string, got 7",
    "predicate true": "predicate must be a string, got true",
    "predicate float": "predicate must be a string, got 1.5",
    "predicate null": "predicate must be a string, got null",
    "predicate list": "predicate must be a string, got []",
    "predicate object": "predicate must be a string, got {}",
    "object string": {"object": "x"},
    "object integer": "object must be a string, got 7",
    "object true": "object must be a string, got true",
    "object float": "object must be a string, got 1.5",
    "object null": "object must be a string, got null",
    "object list": "object must be a string, got []",
    "object object": "object must be a string, got {}",
    "doc_id string": {"doc_id": "x"},
    "doc_id integer": "doc_id must be a string, got 7",
    "doc_id true": "doc_id must be a string, got true",
    "doc_id float": "doc_id must be a string, got 1.5",
    "doc_id null": "doc_id must be a string, got null",
    "doc_id list": "doc_id must be a string, got []",
    "doc_id object": "doc_id must be a string, got {}",
    "article_id string": {"article_id": "x"},
    "article_id integer": "article_id must be a string, got 7",
    "article_id true": "article_id must be a string, got true",
    "article_id float": "article_id must be a string, got 1.5",
    "article_id null": "article_id must be a string, got null",
    "article_id list": "article_id must be a string, got []",
    "article_id object": "article_id must be a string, got {}",
    "chunk_index string": 'chunk_index must be an integer, got "x"',
    "chunk_index integer": {"chunk_index": 7},
    "chunk_index true": "chunk_index must be an integer, got true",
    "chunk_index float": "chunk_index must be an integer, got 1.5",
    "chunk_index null": "chunk_index must be an integer, got null",
    "chunk_index list": "chunk_index must be an integer, got []",
    "chunk_index object": "chunk_index must be an integer, got {}",
    "variant string": "unknown prompt variant 'x'" + _VALID_NAMES,
    "variant integer": "unknown prompt variant 7" + _VALID_NAMES,
    "variant true": "unknown prompt variant True" + _VALID_NAMES,
    "variant float": "unknown prompt variant 1.5" + _VALID_NAMES,
    "variant null": "unknown prompt variant None" + _VALID_NAMES,
    "variant list": "unknown prompt variant []" + _VALID_NAMES,
    "variant object": "unknown prompt variant {}" + _VALID_NAMES,
    "generic_subject string": 'generic_subject must be true or false, got "x"',
    "generic_subject integer": "generic_subject must be true or false, got 7",
    "generic_subject true": {},
    "generic_subject float": "generic_subject must be true or false, got 1.5",
    "generic_subject null": "generic_subject must be true or false, got null",
    "generic_subject list": "generic_subject must be true or false, got []",
    "generic_subject object": "generic_subject must be true or false, got {}",
    "generic_object string": 'generic_object must be true or false, got "x"',
    "generic_object integer": "generic_object must be true or false, got 7",
    "generic_object true": {},
    "generic_object float": "generic_object must be true or false, got 1.5",
    "generic_object null": "generic_object must be true or false, got null",
    "generic_object list": "generic_object must be true or false, got []",
    "generic_object object": "generic_object must be true or false, got {}",
    "no subject": "subject is required",
    "no predicate": "predicate is required",
    "no object": "object is required",
    "no doc_id": "doc_id is required",
    "no article_id": "article_id is required",
    "no chunk_index": "chunk_index is required",
    "no variant": "variant is required",
    "no generic_subject": {"generic_subject": False},
    "no generic_object": {"generic_object": False},
    "no flags": {"generic_subject": False, "generic_object": False},
    "extra key": "unknown key note" + _VALID_KEYS,
    "extra key for a flag": "unknown key note" + _VALID_KEYS,
    "extra key for both flags": "unknown key note" + _VALID_KEYS,
    "other variant": "record names zero-shot, the run negative-examples",
    "reordered, no generic_subject": {"generic_subject": False},
    "record string": 'the record must be an object, got "x"',
    "record integer": "the record must be an object, got 7",
    "record true": "the record must be an object, got true",
    "record float": "the record must be an object, got 1.5",
    "record null": "the record must be an object, got null",
    "record list": "the record must be an object, got []",
    "record object": "variant is required",
    "subject and chunk_index wrong": "subject must be a string, got 7",
    "reversed, subject and chunk_index wrong": 'chunk_index must be an integer, got "x"',
    "extra key and subject wrong": "subject must be a string, got 7",
    "other variant and subject wrong": "record names zero-shot, the run negative-examples",
    "unknown variant and no subject": "unknown prompt variant 'x'" + _VALID_NAMES,
    "no subject and no variant": "variant is required",
    "subject empty": "subject is empty",
    "subject blank": "subject is empty",
    "predicate empty": "predicate is empty",
    "predicate blank": "predicate is empty",
    "object empty": "object is empty",
    "object blank": "object is empty",
    # a blank field is found after every type, key and variant fault
    "subject empty and chunk_index wrong": 'chunk_index must be an integer, got "x"',
    "extra key and object blank": "unknown key note" + _VALID_KEYS,
    "other variant and predicate empty": "record names zero-shot, the run negative-examples",
}


@pytest.mark.parametrize("case", list(_READ_OUTCOMES))
def test_read_run_outcome_of_an_edited_record_is_pinned(tmp_path, case):
    triples = [
        make_triple("japan", "exports", f"cars {i}", generic_subject=True, generic_object=True)
        for i in range(3)
    ]
    outcome = _READ_OUTCOMES[case]
    # the record edited, and whether a sidecar names the run's variant; without one, the
    # first record does, so another variant there is not a fault of that record
    layouts = [(2, True), (2, False)]
    if not case.startswith("other variant"):
        layouts.append((1, False))
    for line, sidecar in layouts:
        path = tmp_path / f"line-{line}-sidecar-{sidecar}" / "negative-examples.jsonl"
        write_run(replace(_run_of(triples), variant=PromptVariant.NEGATIVE_EXAMPLES), path)
        if not sidecar:
            path.with_suffix(".stats.json").unlink()
        lines = path.read_text(encoding="utf-8").split("\n")
        lines[line - 1] = json.dumps(_RECORD_EDITS[case](json.loads(lines[line - 1])))
        path.write_text("\n".join(lines), encoding="utf-8")
        if isinstance(outcome, dict):
            expected = list(triples)
            expected[line - 1] = triples[line - 1]._replace(**outcome)
            assert read_run(path).triples == expected
            continue
        with pytest.raises(ConfigurationError) as caught:
            read_run(path)
        assert str(caught.value) == f"corrupt run file {path}, line {line}: {outcome}"
