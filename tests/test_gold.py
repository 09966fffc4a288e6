"""Gold benchmark loading: normalization parity, duplicates, hard failures."""

from __future__ import annotations

import logging

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triplex.defaults import sample_gold_path
from triplex.errors import GoldValidationError
from triplex.extraction import normalize_field
from triplex.gold import GoldTriple, load_gold


def write_gold(tmp_path, body: str, name: str = "gold.csv"):
    path = tmp_path / name
    path.write_text(body, encoding="utf-8")
    return path


def test_bundled_sample_loads_with_one_hundred_rows():
    gold = load_gold(sample_gold_path())
    assert len(gold) == 100
    assert gold.duplicates_collapsed == 0
    assert gold.annotator.startswith("bundled sample")
    for triple in gold.triples:
        assert triple.subject == normalize_field(triple.subject)
        assert triple.predicate == normalize_field(triple.predicate)
        assert triple.object == normalize_field(triple.object)
    assert len(set(gold.triples)) == 100


def test_byte_order_mark_is_ignored(tmp_path):
    body = "# annotator: Ana\nsubject,predicate,object\nJapan,signed,the Protocol\n"
    plain = load_gold(write_gold(tmp_path, body, "plain.csv"))
    assert plain.annotator == "Ana"
    assert load_gold(write_gold(tmp_path, "\ufeff" + body, "bom.csv")) == plain


def test_fields_are_normalized_like_predictions(tmp_path):
    path = write_gold(
        tmp_path,
        'subject,predicate,object\n"  The  Parties ",SIGNED,contract.\n',
    )
    gold = load_gold(path)
    assert gold.triples == (GoldTriple("the parties", "signed", "contract"),)


def test_duplicates_collapse_with_warning(tmp_path, caplog):
    path = write_gold(
        tmp_path,
        "subject,predicate,object\n"
        "Japan,signed,the Protocol\n"
        "JAPAN,signed,the Protocol.\n"  # same triple after normalization
        "Chile,exports,copper\n",
    )
    with caplog.at_level(logging.WARNING, logger="triplex.gold"):
        gold = load_gold(path)
    assert len(gold) == 2
    assert gold.duplicates_collapsed == 1
    assert any("row 3" in message for message in caplog.messages)


def test_empty_fields_are_fatal_with_row_numbers(tmp_path):
    path = write_gold(
        tmp_path,
        "subject,predicate,object\n"
        "Japan,signed,the Protocol\n"
        ",signed,the Protocol\n"
        "Chile,,\n",
    )
    with pytest.raises(GoldValidationError) as excinfo:
        load_gold(path)
    message = str(excinfo.value)
    assert "row 3: empty subject" in message
    assert "row 4: empty predicate, object" in message


def test_annotator_comment_parsed(tmp_path):
    path = write_gold(
        tmp_path,
        "# annotator: trade-law expert panel\n"
        "subject,predicate,object\nJapan,signed,x\n",
    )
    assert load_gold(path).annotator == "trade-law expert panel"


def test_extra_columns_and_any_order_allowed(tmp_path):
    path = write_gold(
        tmp_path,
        "object,note,subject,predicate\nthe Protocol,ignored,Japan,signed\n",
    )
    gold = load_gold(path)
    assert gold.triples == (GoldTriple("japan", "signed", "the protocol"),)


def test_missing_column_is_fatal(tmp_path):
    path = write_gold(tmp_path, "subject,predicate\nJapan,signed\n")
    with pytest.raises(GoldValidationError) as excinfo:
        load_gold(path)
    assert "object" in str(excinfo.value)


def test_row_numbers_count_every_physical_line_and_short_rows_read_empty(tmp_path):
    path = write_gold(
        tmp_path,
        "# annotator: Ana\n"
        "subject,predicate,object\n"
        "Japan,signed,the Protocol\n"
        "\n"
        "# a comment between rows\n"
        "Chile,exports\n"
        "Peru,imports,copper\n",
    )
    with pytest.raises(GoldValidationError) as excinfo:
        load_gold(path)
    assert str(excinfo.value).endswith("has empty fields: row 6: empty object")


def test_missing_file_and_empty_file_are_fatal(tmp_path):
    with pytest.raises(GoldValidationError):
        load_gold(tmp_path / "absent.csv")
    with pytest.raises(GoldValidationError):
        load_gold(write_gold(tmp_path, "# only a comment\n"))


_FIELD = st.text(
    alphabet=st.characters(whitelist_categories=("Lu", "Ll"), max_codepoint=0x7F),
    min_size=1,
    max_size=12,
)


@settings(max_examples=100, deadline=None)
@given(rows=st.lists(st.tuples(_FIELD, _FIELD, _FIELD), min_size=1, max_size=20))
def test_loaded_triples_match_normalization_oracle(tmp_path_factory, rows):
    tmp_path = tmp_path_factory.mktemp("gold")
    body = "subject,predicate,object\n" + "\n".join(
        ",".join(row) for row in rows
    )
    gold = load_gold(write_gold(tmp_path, body))
    expected: list[GoldTriple] = []
    seen: set[GoldTriple] = set()
    for s, p, o in rows:
        triple = GoldTriple(normalize_field(s), normalize_field(p), normalize_field(o))
        if triple not in seen:
            seen.add(triple)
            expected.append(triple)
    assert list(gold.triples) == expected
    assert gold.duplicates_collapsed == len(rows) - len(expected)
