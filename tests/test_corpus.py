"""Corpus loading, preprocessing, chunking, and cache serialization."""

from __future__ import annotations

import re
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triplex.corpus import (
    MIN_CHUNK_CHARS,
    AgreementDocument,
    ArticleUnit,
    PreprocessConfig,
    chunk_document,
    chunk_text,
    load_corpus,
    preprocess,
    preprocess_document,
    preprocess_index,
    read_corpus_jsonl,
    write_corpus_jsonl,
)
from triplex.errors import ConfigurationError

from oracles import preprocess_oracle

# Tokenizer written independently of the implementation: maximal runs of word
# characters or of non-space punctuation. Used as an oracle below.
_ORACLE_TOKEN = re.compile(r"\w+|[^\w\s]+")


def oracle_tokens(text: str) -> list[str]:
    return _ORACLE_TOKEN.findall(text)


# ---------------------------------------------------------------------------
# loading
# ---------------------------------------------------------------------------


def test_load_corpus_finds_three_documents(corpus_dir):
    index = load_corpus(corpus_dir)
    assert [d.doc_id for d in index.documents] == [
        "canada-norway",
        "eu-chile-2003",
        "japan-thailand-2007",
    ]
    assert index.load_errors == ()


def test_parties_from_metadata_tags(corpus_dir):
    index = load_corpus(corpus_dir)
    by_id = {d.doc_id: d for d in index.documents}
    assert by_id["japan-thailand-2007"].party_a == "Japan"
    assert by_id["japan-thailand-2007"].party_b == "Thailand"
    assert by_id["eu-chile-2003"].party_a == "European Union"
    assert by_id["eu-chile-2003"].party_b == "Chile"


def test_parties_fall_back_to_filename_skipping_year(corpus_dir):
    index = load_corpus(corpus_dir)
    doc = next(d for d in index.documents if d.doc_id == "canada-norway")
    assert (doc.party_a, doc.party_b) == ("canada", "norway")
    # the year segment in eu-chile-2003 must never be treated as a party
    eu = next(d for d in index.documents if d.doc_id == "eu-chile-2003")
    assert "2003" not in (eu.party_a, eu.party_b)


def test_sectors_split_lowercased_sorted(corpus_dir):
    index = load_corpus(corpus_dir)
    by_id = {d.doc_id: d for d in index.documents}
    assert by_id["japan-thailand-2007"].sectors == ("agriculture", "customs")
    assert by_id["eu-chile-2003"].sectors == ("agriculture", "services")
    assert by_id["canada-norway"].sectors == ()


def test_leaf_units_only_no_double_counting(corpus_dir):
    index = load_corpus(corpus_dir)
    by_id = {d.doc_id: d for d in index.documents}
    # chapters containing articles contribute a path prefix, not text of their own
    assert [a.article_id for a in by_id["japan-thailand-2007"].articles] == [
        "chapter:001/article:001",
        "chapter:001/article:002",
        "chapter:002/article:001",
        "chapter:002/article:002",
    ]
    # a standalone article outside any chapter is a unit of its own
    assert [a.article_id for a in by_id["canada-norway"].articles] == [
        "chapter:001/article:001",
        "chapter:001/article:002",
        "article:001",
    ]
    # tag matching is case-insensitive
    assert [a.article_id for a in by_id["eu-chile-2003"].articles] == [
        "chapter:001/article:001",
        "chapter:001/article:002",
    ]
    for doc in index.documents:
        for article in doc.articles:
            assert article.raw_text.strip()
            assert article.clean_text == ""


def test_root_element_that_is_a_unit_is_labelled_like_any_unit(tmp_path):
    (tmp_path / "a-leaf.xml").write_text(
        "<Article><title>Scope</title><p>Japan shall eliminate duties.</p></Article>",
        encoding="utf-8",
    )
    (tmp_path / "b-nested.xml").write_text(
        "<chapter><heading>Trade in goods</heading>"
        "<article>Tariffs shall be reduced.</article>"
        "<article>Quotas are abolished.</article>"
        "</chapter>",
        encoding="utf-8",
    )
    (tmp_path / "c-empty.xml").write_text("<article>  \n </article>", encoding="utf-8")
    (tmp_path / "d-blank-article.xml").write_text(
        "<chapter><heading>Goods</heading><article> </article></chapter>", encoding="utf-8"
    )
    by_id = {d.doc_id: d for d in load_corpus(tmp_path).documents}
    # a leaf root is the document's single unit, holding all of its text
    assert [(a.article_id, a.raw_text) for a in by_id["a-leaf"].articles] == [
        ("article:001", "ScopeJapan shall eliminate duties.")
    ]
    # a root holding units contributes the path prefix and no text of its own
    assert [(a.article_id, a.raw_text) for a in by_id["b-nested"].articles] == [
        ("chapter:001/article:001", "Tariffs shall be reduced."),
        ("chapter:001/article:002", "Quotas are abolished."),
    ]
    assert by_id["c-empty"].articles == ()
    # a unit holding only blank units yields nothing, not its own text
    assert by_id["d-blank-article"].articles == ()


def test_units_under_a_non_unit_wrapper_continue_their_parents_numbering(tmp_path):
    (tmp_path / "wrapped.xml").write_text(
        "<agreement><chapter>"
        "<article>Tariffs shall be reduced.</article>"
        "<section><article>Quotas are abolished.</article>"
        "<part><article>Licences are automatic.</article></part></section>"
        "</chapter><annex><chapter>Rules of origin apply.</chapter></annex></agreement>",
        encoding="utf-8",
    )
    (doc,) = load_corpus(tmp_path).documents
    assert [a.article_id for a in doc.articles] == [
        "chapter:001/article:001",
        "chapter:001/article:002",
        "chapter:001/article:003",
        "chapter:002",
    ]


def test_comments_and_processing_instructions_change_nothing_loaded(tmp_path):
    # ET.parse drops both, so every element the walk meets has a string tag
    marked = (
        '<?xml version="1.0" encoding="UTF-8"?>\n<!-- before -->\n<?note before?>\n'
        "<agreement><!-- meta --><meta><partyA>Ja<!-- split -->pan</partyA>"
        "<?note party?><partyB>Thailand</partyB>"
        "<sector><?note sector?>customs; agriculture<!-- sector --></sector></meta>"
        "<chapter><?note chapter?><article>Japan <!-- inside -->reduces duties.<?note end?>"
        "</article><!-- between --><article><!-- first -->Thailand grants access."
        "</article></chapter></agreement>\n<!-- after -->\n<?note after?>\n"
    )
    plain = re.sub(r"<!--.*?-->|<\?note .*?\?>", "", marked)
    for name, text in (("marked", marked), ("plain", plain)):
        (tmp_path / name).mkdir()
        (tmp_path / name / "japan-thailand.xml").write_text(text, encoding="utf-8")
    (doc,) = load_corpus(tmp_path / "marked").documents
    assert load_corpus(tmp_path / "plain").documents == (doc,)
    assert (doc.party_a, doc.party_b) == ("Japan", "Thailand")
    assert doc.sectors == ("agriculture", "customs")
    assert [(a.article_id, a.raw_text) for a in doc.articles] == [
        ("chapter:001/article:001", "Japan reduces duties."),
        ("chapter:001/article:002", "Thailand grants access."),
    ]


def test_unparseable_file_is_reported_not_fatal(corpus_with_errors_dir):
    index = load_corpus(corpus_with_errors_dir)
    assert [d.doc_id for d in index.documents] == ["canada-norway", "japan-thailand-2007"]
    assert len(index.load_errors) == 1
    filename, reason = index.load_errors[0]
    assert filename == "truncated.xml"
    assert "XML parse error" in reason


def test_limit_keeps_first_files_lexicographically(corpus_dir):
    index = load_corpus(corpus_dir, limit=2)
    assert [d.doc_id for d in index.documents] == ["canada-norway", "eu-chile-2003"]
    assert len(load_corpus(corpus_dir, limit=0).documents) == 0


def test_missing_directory_raises_configuration_error(tmp_path):
    missing = tmp_path / "nowhere"
    with pytest.raises(ConfigurationError) as excinfo:
        load_corpus(missing)
    assert str(missing) in str(excinfo.value)


# ---------------------------------------------------------------------------
# preprocessing
# ---------------------------------------------------------------------------


def test_removal_terms_are_built_once_per_config():
    config = PreprocessConfig()
    assert config.removal_terms is config.removal_terms
    assert config.removal_terms == config.stopwords | config.domain_filler_terms
    # the cached set is not a field: equality, hashing and replace ignore it
    assert config == PreprocessConfig() and hash(config) == hash(PreprocessConfig())
    narrowed = replace(config, stopwords=frozenset({"shall"}))
    assert narrowed.removal_terms == {"shall"} | config.domain_filler_terms


def test_preprocess_removes_stopwords_and_fillers():
    config = PreprocessConfig()
    assert (
        preprocess("The Parties shall eliminate the tariff", config)
        == "Parties eliminate tariff"
    )


def test_preprocess_removes_domain_filler_terms():
    config = PreprocessConfig()
    out = preprocess("This Agreement shall enter into force on the first day.", config)
    assert out == "enter force first day."


def test_preprocess_keeps_punctuation_attached_when_collapsing():
    config = PreprocessConfig()
    assert preprocess("The  tariff.", config) == "tariff."


def test_preprocess_preserves_gaps_without_collapsing():
    config = PreprocessConfig(collapse_whitespace=False)
    assert preprocess("Tariff.  The  rate", config) == "Tariff.    rate"


@pytest.mark.parametrize(
    ("text", "lowercase", "expected"),
    [
        # leading removed tokens take their gaps with them
        ("The  Parties shall eliminate tariffs", False, "Parties  eliminate tariffs"),
        (
            "  the\tParties of the  Agreement  shall\n reduce duties",
            False,
            "Parties      \n reduce duties",
        ),
        # consecutive removed tokens leave every gap between the kept ones
        ("Tariffs shall  be   the  of\tduties.", False, "Tariffs        \tduties."),
        (
            "Japan, the  shall exports.\n\nThe Parties",
            True,
            "japan,    exports.\n\n parties",
        ),
        # trailing removed tokens and their gaps are dropped
        ("Tariffs  of the \n", False, "Tariffs"),
    ],
)
def test_preprocess_without_collapsing_keeps_exact_gaps(text, lowercase, expected):
    config = PreprocessConfig(lowercase=lowercase, collapse_whitespace=False)
    assert preprocess(text, config) == expected


def test_preprocess_lowercase_flag():
    config = PreprocessConfig(lowercase=True)
    assert preprocess("The Parties shall eliminate Tariffs", config) == "parties eliminate tariffs"


def test_preprocess_empty_and_all_stopword_inputs():
    config = PreprocessConfig()
    assert preprocess("", config) == ""
    assert preprocess("the of and shall", config) == ""


def test_preprocess_token_selection_oracle():
    """Output tokens must be exactly the input tokens not in the removal set."""
    config = PreprocessConfig()
    text = "The Parties shall, within one year of this Agreement, eliminate tariffs."
    expected = [t for t in oracle_tokens(text) if t.lower() not in config.removal_terms]
    assert oracle_tokens(preprocess(text, config)) == expected


_WORDS = st.sampled_from(
    ["the", "The", "shall", "Agreement", "tariff", "Japan", "exports", "goods",
     "of", "and", "customs", "duties", "Article", "Parties", "reduce", "2003"]
)
_SEPARATORS = st.sampled_from([" ", "  ", "\n", " \n ", "\t", ". ", ", "])


@st.composite
def _texts(draw) -> str:
    n = draw(st.integers(min_value=0, max_value=12))
    parts = []
    for _ in range(n):
        parts.append(draw(_WORDS))
        parts.append(draw(_SEPARATORS))
    return "".join(parts)


@settings(max_examples=200, deadline=None)
@given(text=_texts(), lowercase=st.booleans(), collapse=st.booleans())
def test_preprocess_token_oracle_and_idempotence(text, lowercase, collapse):
    config = PreprocessConfig(lowercase=lowercase, collapse_whitespace=collapse)
    out = preprocess(text, config)
    expected = [t for t in oracle_tokens(text) if t.lower() not in config.removal_terms]
    if lowercase:
        expected = [t.lower() for t in expected]
    assert oracle_tokens(out) == expected
    assert preprocess(out, config) == out


# removal terms, kept words, punctuation that runs into its neighbours, and whitespace, so drawn
# texts start and end with any of them
_PREPROCESS_PIECES = st.sampled_from(
    ["the", "The", "of", "shall", "Agreement", "tariff", "Japan", "2003", "Parties", "x_y",
     ".", ",", ";", "...", "!?", "(", ")", "--", "'", '"', "é",
     " ", "  ", "\t", "\n", " \n ", "\u2028", "\xa0", ""]
)


@pytest.mark.parametrize("lowercase", [False, True])
@pytest.mark.parametrize("collapse", [False, True])
@settings(max_examples=300, deadline=None)
@given(text=st.lists(_PREPROCESS_PIECES | st.text(max_size=3), max_size=30).map("".join))
def test_preprocess_matches_the_reference(text, lowercase, collapse):
    config = PreprocessConfig(lowercase=lowercase, collapse_whitespace=collapse)
    assert preprocess(text, config) == preprocess_oracle(text, config)


def test_preprocess_document_fills_clean_text(corpus_dir):
    index = load_corpus(corpus_dir)
    config = PreprocessConfig()
    doc = preprocess_document(index.documents[0], config)
    assert all(a.clean_text for a in doc.articles)
    assert all(
        a.clean_text == preprocess(a.raw_text, config) for a in doc.articles
    )


def test_max_chunk_chars_floor_enforced():
    with pytest.raises(ConfigurationError):
        PreprocessConfig(max_chunk_chars=MIN_CHUNK_CHARS - 1)
    PreprocessConfig(max_chunk_chars=MIN_CHUNK_CHARS)  # boundary is allowed


# ---------------------------------------------------------------------------
# chunking
# ---------------------------------------------------------------------------


def test_chunk_text_packs_sentences_to_limit():
    # 30 sentences of 298 characters -> 13 + 13 + 4 under a 4000-char budget:
    # 13 sentences cost 13*298 + 12 joining spaces = 3886, and a 14th would
    # push the chunk to 4185.
    sentence = "x" * 297 + "."
    text = " ".join([sentence] * 30)
    chunks = chunk_text(text, 4000)
    assert [len(c.split(" ")) for c in chunks] == [13, 13, 4]
    assert all(len(c) <= 4000 for c in chunks)
    assert " ".join(chunks) == text


def test_chunk_text_short_input_is_single_chunk():
    assert chunk_text("Japan exports goods.", 4000) == ["Japan exports goods."]
    assert chunk_text("", 4000) == []
    assert chunk_text("   ", 4000) == []


def test_chunk_text_splits_oversize_sentence_on_words():
    words = ["w" * 50 for _ in range(20)]  # one 1019-char "sentence", no periods
    text = " ".join(words)
    chunks = chunk_text(text, 400)
    assert all(len(c) <= 400 for c in chunks)
    assert " ".join(chunks) == text


def test_chunk_text_hard_cuts_unbroken_runs():
    text = "a" * 900
    chunks = chunk_text(text, 400)
    assert [len(c) for c in chunks] == [400, 400, 100]
    assert "".join(chunks) == text


@settings(max_examples=150, deadline=None)
@given(
    n_sentences=st.integers(min_value=0, max_value=12),
    data=st.data(),
)
def test_chunk_text_properties(n_sentences, data):
    sentences = []
    for _ in range(n_sentences):
        length = data.draw(st.integers(min_value=1, max_value=80))
        sentences.append("s" * length + ".")
    text = " ".join(sentences)
    max_chars = data.draw(st.integers(min_value=MIN_CHUNK_CHARS, max_value=500))
    chunks = chunk_text(text, max_chars)
    assert all(len(c) <= max_chars for c in chunks)
    assert all(c.strip() for c in chunks)
    # no characters are lost or reordered
    assert "".join(chunks).replace(" ", "") == text.replace(" ", "")


def test_chunk_document_uses_clean_text_or_preprocesses(corpus_dir, small_chunks_config):
    index = load_corpus(corpus_dir)
    doc = index.documents[0]
    lazy = chunk_document(doc, small_chunks_config)
    eager = chunk_document(preprocess_document(doc, small_chunks_config), small_chunks_config)
    assert lazy == eager
    assert lazy, "fixture document must produce at least one chunk"
    assert all(len(text) <= 600 for _, _, text in lazy)
    # chunk indexes restart at 0 for every article
    first_indexes = {}
    for article_id, chunk_index, _ in lazy:
        first_indexes.setdefault(article_id, chunk_index)
    assert set(first_indexes.values()) == {0}


def test_chunk_document_skips_empty_articles(small_chunks_config):
    doc = AgreementDocument(
        doc_id="d",
        party_a=None,
        party_b=None,
        sectors=(),
        articles=(ArticleUnit("article:001", raw_text="the of and"),),
    )
    assert chunk_document(doc, small_chunks_config) == []


# ---------------------------------------------------------------------------
# cache serialization
# ---------------------------------------------------------------------------


def test_corpus_jsonl_round_trip(corpus_dir, tmp_path):
    index = preprocess_index(load_corpus(corpus_dir), PreprocessConfig())
    cache = tmp_path / "corpus.jsonl"
    write_corpus_jsonl(index, cache)
    back = read_corpus_jsonl(cache)
    assert [d.doc_id for d in back.documents] == [d.doc_id for d in index.documents]
    for original, restored in zip(index.documents, back.documents):
        assert restored.party_a == original.party_a
        assert restored.party_b == original.party_b
        assert restored.sectors == original.sectors
        assert [(a.article_id, a.clean_text) for a in restored.articles] == [
            (a.article_id, a.clean_text) for a in original.articles
        ]
        assert all(a.raw_text == "" for a in restored.articles)


def test_corpus_jsonl_bytes_are_deterministic(corpus_dir, tmp_path):
    index = preprocess_index(load_corpus(corpus_dir), PreprocessConfig())
    first, second = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_corpus_jsonl(index, first)
    write_corpus_jsonl(index, second)
    assert first.read_bytes() == second.read_bytes()


def test_read_corpus_jsonl_missing_file(tmp_path):
    with pytest.raises(ConfigurationError):
        read_corpus_jsonl(tmp_path / "absent.jsonl")
