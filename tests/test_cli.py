"""Command-line pipeline: exit codes, artifacts, overrides, determinism."""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

import triplex
from regen_golden import quickstart_manifest, run_all, run_all_eval_report, run_all_pinned
from triplex import cli, extraction
from triplex.cli import main
from triplex.corpus import chunk_document, read_corpus_jsonl
from triplex.llmclient import LlmClient, MockTransport
from triplex.prompting import PromptVariant


def out_dir_of(config_path: Path) -> Path:
    return Path(json.loads(config_path.read_text(encoding="utf-8"))["output_dir"])


def truncate(path: Path) -> int:
    """Cut the file short inside its last line; returns that line's number."""
    text = path.read_text(encoding="utf-8").rstrip("\n")
    path.write_text(text[:-20], encoding="utf-8")
    return len(text.splitlines())


# ---------------------------------------------------------------------------
# configuration errors
# ---------------------------------------------------------------------------


def test_missing_config_file_is_fatal(tmp_path, capsys):
    rc = main(["ingest", "--config", str(tmp_path / "absent.json")])
    assert rc == 2
    assert "config file not found" in capsys.readouterr().err


def test_invalid_json_config_is_fatal(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert main(["ingest", "--config", str(bad)]) == 2
    assert f"corrupt config file {bad}: Expecting property name" in capsys.readouterr().err


def test_missing_corpus_dir_is_fatal_and_names_the_path(config_file, tmp_path, capsys):
    missing = tmp_path / "no-corpus-here"
    config = config_file(corpus={"source_dir": str(missing)})
    assert main(["ingest", "--config", str(config)]) == 2
    assert str(missing) in capsys.readouterr().err


def test_config_without_a_corpus_dir_is_fatal(config_file, capsys):
    config = config_file()
    settings = json.loads(config.read_text(encoding="utf-8"))
    del settings["corpus"]["source_dir"]
    config.write_text(json.dumps(settings), encoding="utf-8")
    assert main(["ingest", "--config", str(config)]) == 2
    assert capsys.readouterr().err == "error: config lacks corpus.source_dir\n"


def test_unknown_command_is_refused_by_argparse(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["bogus"])
    assert excinfo.value.code == 2
    assert "invalid choice: 'bogus'" in capsys.readouterr().err


def test_unknown_variant_is_rejected_listing_choices(config_file, capsys):
    config = config_file()
    with pytest.raises(SystemExit) as excinfo:
        main(["extract", "--config", str(config), "--variant", "two-shot"])
    assert excinfo.value.code == 2
    stderr = capsys.readouterr().err
    assert "two-shot" in stderr
    for name in ("zero-shot", "one-shot", "few-shot", "negative-examples"):
        assert name in stderr


def test_extract_before_ingest_is_fatal(config_file, capsys):
    config = config_file()
    assert main(["extract", "--config", str(config)]) == 2
    assert "corpus cache not found" in capsys.readouterr().err


def test_eval_without_runs_is_fatal(config_file, capsys):
    config = config_file()
    assert main(["ingest", "--config", str(config)]) == 0
    assert main(["eval", "--config", str(config)]) == 2
    assert "no runs found" in capsys.readouterr().err


def test_report_before_eval_is_fatal(config_file, capsys):
    config = config_file()
    assert main(["ingest", "--config", str(config)]) == 0
    assert main(["extract", "--config", str(config), "--variant", "zero-shot"]) == 0
    assert main(["report", "--config", str(config)]) == 2
    assert "eval report not found" in capsys.readouterr().err


def test_sample_rejects_all_variants(config_file, capsys):
    config = config_file()
    assert main(["ingest", "--config", str(config)]) == 0
    assert main(["extract", "--config", str(config)]) == 0
    assert main(["sample", "--config", str(config), "--variant", "all"]) == 2
    assert "single --variant" in capsys.readouterr().err


def test_extract_of_every_variant_chunks_each_document_once(config_file, monkeypatch):
    config = config_file()
    assert main(["ingest", "--config", str(config)]) == 0
    chunked: list[str] = []

    def counted(doc, preprocess_config):
        chunked.append(doc.doc_id)
        return chunk_document(doc, preprocess_config)

    monkeypatch.setattr(extraction, "chunk_document", counted)
    assert main(["extract", "--config", str(config), "--variant", "all"]) == 0
    documents = read_corpus_jsonl(out_dir_of(config) / "corpus.jsonl").documents
    assert len(documents) > 1
    assert sorted(chunked) == sorted(doc.doc_id for doc in documents)
    assert len(list((out_dir_of(config) / "runs").glob("*.jsonl"))) == len(PromptVariant)


def test_extract_frees_each_variant_run_before_the_next_variant_starts(config_file, monkeypatch):
    config = config_file()
    assert main(["ingest", "--config", str(config)]) == 0
    written: list[weakref.ref] = []
    alive_at_start: list[int] = []

    def write_run(run, path):
        written.append(weakref.ref(run))
        extraction.write_run(run, path)

    def run_extraction(*args, **kwargs):
        alive_at_start.append(sum(ref() is not None for ref in written))
        return extraction.run_extraction(*args, **kwargs)

    monkeypatch.setattr(cli, "write_run", write_run)
    monkeypatch.setattr(cli, "run_extraction", run_extraction)
    assert main(["extract", "--config", str(config), "--variant", "all"]) == 0
    assert len(written) == len(PromptVariant)
    assert alive_at_start == [0] * len(PromptVariant)


def test_ingest_finds_the_one_article_of_an_agreement_nested_5000_deep(config_file, tmp_path):
    source = tmp_path / "deep"
    source.mkdir()
    depth = 5000  # five times Python's default recursion limit
    (source / "deep.xml").write_text(
        "<agreement>" + "<div>" * depth + "<article>Japan eliminates customs duties.</article>"
        + "</div>" * depth + "</agreement>",
        encoding="utf-8",
    )
    config = config_file(corpus={"source_dir": str(source)})
    assert main(["ingest", "--config", str(config)]) == 0
    (document,) = read_corpus_jsonl(out_dir_of(config) / "corpus.jsonl").documents
    (article,) = document.articles
    assert article.article_id == "article:001"
    assert "Japan eliminates customs duties" in article.clean_text


def test_deficient_example_bank_is_fatal(config_file, tmp_path, capsys):
    text = (Path(triplex.__file__).parent / "data" / "examples.json").read_text(encoding="utf-8")
    bank_path = tmp_path / "bank.json"
    bank_path.write_text(text, encoding="utf-8")
    config = config_file(prompts={"examples_file": str(bank_path)})
    assert main(["ingest", "--config", str(config)]) == 0
    for deficiency, message in (
        (lambda bank: bank.update(positive_examples=[]), "example bank is incomplete"),
        (lambda bank: bank.update(focus_verbs=[]), "example bank needs at least one focus verb"),
        (lambda bank: bank["positive_examples"][0].update(triples=[]), "has no triples"),
    ):
        bank = json.loads(text)
        deficiency(bank)
        bank_path.write_text(json.dumps(bank), encoding="utf-8")
        capsys.readouterr()
        assert main(["extract", "--config", str(config), "--variant", "one-shot"]) == 2
        assert message in fatal_error_line(capsys.readouterr().err)


def test_gold_file_with_empty_field_is_fatal(config_file, tmp_path, capsys):
    gold = tmp_path / "gold.csv"
    gold.write_text("subject,predicate,object\nJapan,,customs duties\n", encoding="utf-8")
    config = config_file(eval={"gold_path": str(gold)})
    assert main(["ingest", "--config", str(config)]) == 0
    assert main(["extract", "--config", str(config), "--variant", "zero-shot"]) == 0
    assert main(["eval", "--config", str(config)]) == 2
    assert "row 2: empty predicate" in capsys.readouterr().err


def test_gold_file_with_only_a_header_is_fatal(config_file, tmp_path, capsys):
    gold = tmp_path / "gold.csv"
    gold.write_text("# annotator: nobody\nsubject,predicate,object\n\n", encoding="utf-8")
    config = config_file(eval={"gold_path": str(gold)})
    assert main(["ingest", "--config", str(config)]) == 0
    assert main(["extract", "--config", str(config), "--variant", "zero-shot"]) == 0
    assert main(["eval", "--config", str(config)]) == 2
    stderr = capsys.readouterr().err
    assert f"gold file {gold} has no triples" in stderr
    assert "Traceback" not in stderr


def fatal_error_line(stderr: str) -> str:
    """The one ``error:`` line of a fatal exit, which must carry no traceback."""
    assert "Traceback" not in stderr
    (line,) = [line for line in stderr.splitlines() if line.startswith("error:")]
    return line


BUNDLED = Path(triplex.__file__).parent / "data"
NOT_UTF8 = "Zürich\n".encode("latin-1")


def _bad_config(config_file, tmp_path):
    config = config_file()
    config.write_bytes(NOT_UTF8)
    return config, config, ["ingest"]


def _bad_stopwords(config_file, tmp_path):
    stopwords = tmp_path / "stopwords.txt"
    stopwords.write_bytes(NOT_UTF8)
    return config_file(corpus={"stopwords_file": str(stopwords)}), stopwords, ["ingest"]


def _bad_template(config_file, tmp_path):
    prompts = tmp_path / "prompts"
    prompts.mkdir()
    for template in (BUNDLED / "prompts").glob("*.txt"):
        (prompts / template.name).write_bytes(template.read_bytes())
    (prompts / "few-shot.txt").write_bytes(NOT_UTF8)
    config = config_file(prompts={"template_dir": str(prompts)})
    return config, prompts / "few-shot.txt", ["extract", "--variant", "zero-shot"]


def _bad_bank(config_file, tmp_path):
    bank = tmp_path / "bank.json"
    bank.write_bytes(NOT_UTF8)
    config = config_file(prompts={"examples_file": str(bank)})
    return config, bank, ["extract", "--variant", "zero-shot"]


def _bad_gold(config_file, tmp_path):
    gold = tmp_path / "gold.csv"
    gold.write_bytes(b"subject,predicate,object\n" + NOT_UTF8)
    return config_file(eval={"gold_path": str(gold)}), gold, ["eval"]


@pytest.mark.parametrize(
    "setup", [_bad_config, _bad_stopwords, _bad_template, _bad_bank, _bad_gold],
    ids=["config", "stopwords", "template", "bank", "gold"],
)
def test_non_utf8_input_file_is_fatal_and_named(config_file, tmp_path, capsys, setup):
    config, bad_file, command = setup(config_file, tmp_path)
    if command[0] != "ingest":
        assert main(["ingest", "--config", str(config)]) == 0
    if command[0] == "eval":
        assert main(["extract", "--config", str(config), "--variant", "zero-shot"]) == 0
    capsys.readouterr()
    assert main([command[0], "--config", str(config), *command[1:]]) == 2
    line = fatal_error_line(capsys.readouterr().err)
    assert line.startswith("error: corrupt ")
    assert f" {bad_file}: 'utf-8' codec can't decode" in line


def _bundled_bank() -> dict:
    return json.loads((BUNDLED / "examples.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda bank: [bank], "the top level must be an object, got [{"),
        (
            lambda bank: {**bank, "negated_instructions": "Do not guess."},
            'negated_instructions must be a list of strings, got "Do not guess."',
        ),
        (
            lambda bank: {
                **bank,
                "negative_examples": [{"triple": ["The Parties", "signed"], "reason": "vague"}],
            },
            'negative_examples[0].triple must be a list of 3 strings, got ["The Parties", ',
        ),
        (
            lambda bank: {**bank, "focus_verb": ["sign"]},
            "unknown key focus_verb; valid keys: focus_verbs, ",
        ),
        (
            lambda bank: {**bank, "positive_examples": [{"snippet": "x", "triples": "a, b, c"}]},
            'positive_examples[0].triples must be a list of lists of 3 strings, got "a, b, c"',
        ),
        (
            lambda bank: {
                **bank,
                "positive_examples": [
                    {k: v for k, v in example.items() if (i, k) != (1, "snippet")}
                    for i, example in enumerate(bank["positive_examples"])
                ],
            },
            "positive_examples[1].snippet is required",
        ),
    ],
    ids=[
        "a list", "string instructions", "two-field triple", "unknown key", "string triples",
        "missing snippet",
    ],
)
def test_malformed_example_bank_is_fatal_and_named(config_file, tmp_path, capsys, edit, message):
    bank = tmp_path / "bank.json"
    bank.write_text(json.dumps(edit(_bundled_bank())), encoding="utf-8")
    config = config_file(prompts={"examples_file": str(bank)})
    assert main(["ingest", "--config", str(config)]) == 0
    capsys.readouterr()
    assert main(["extract", "--config", str(config), "--variant", "zero-shot"]) == 2
    line = fatal_error_line(capsys.readouterr().err)
    assert line.startswith(f"error: corrupt example bank {bank}: {message}")


def test_unwritable_output_dir_is_fatal(config_file, tmp_path, capsys):
    occupied = tmp_path / "a-file"
    occupied.write_text("not a directory", encoding="utf-8")
    config = config_file(output_dir=str(occupied))
    assert main(["ingest", "--config", str(config)]) == 2
    line = fatal_error_line(capsys.readouterr().err)
    assert line.startswith(f"error: cannot write {occupied / 'corpus.jsonl'}: ")
    assert occupied.read_text(encoding="utf-8") == "not a directory"


def test_truncated_corpus_cache_is_fatal_and_names_file_and_line(config_file, capsys):
    config = config_file()
    assert main(["ingest", "--config", str(config)]) == 0
    cache = out_dir_of(config) / "corpus.jsonl"
    line = truncate(cache)
    capsys.readouterr()
    assert main(["extract", "--config", str(config)]) == 2
    assert f"corrupt corpus cache {cache}, line {line}:" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["party_a", "party_b", "sectors", "articles", "clean_text"])
def test_corpus_cache_record_lacking_a_key_is_fatal_and_names_file_and_line(
    config_file, capsys, key
):
    config = config_file()
    assert main(["ingest", "--config", str(config)]) == 0
    cache = out_dir_of(config) / "corpus.jsonl"
    lines = cache.read_text(encoding="utf-8").splitlines()
    record = json.loads(lines[1])
    del (record["articles"][0] if key == "clean_text" else record)[key]
    lines[1] = json.dumps(record)
    cache.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["extract", "--config", str(config)]) == 2
    where = "articles[0]." if key == "clean_text" else ""
    assert f"corrupt corpus cache {cache}, line 2: {where}{key} is required" in capsys.readouterr().err


def test_corpus_cache_line_that_is_not_an_object_is_fatal_and_names_itself(config_file, capsys):
    config = config_file()
    assert main(["ingest", "--config", str(config)]) == 0
    cache = out_dir_of(config) / "corpus.jsonl"
    lines = cache.read_text(encoding="utf-8").splitlines()
    lines[1] = "[]"
    cache.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["extract", "--config", str(config)]) == 2
    assert (
        f"corrupt corpus cache {cache}, line 2: the record must be an object, got []"
        in capsys.readouterr().err
    )


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("clean_text", 5, "articles[0].clean_text must be a string, got 5"),
        ("sectors", "agri", 'sectors must be a list of strings, got "agri"'),
        ("party_a", ["Chile"], 'party_a must be a string or null, got ["Chile"]'),
        ("articles", {"article_id": "a"}, "articles must be a list of objects, got {"),
        # the wrong value is cut to its first 200 characters of JSON
        ("sectors", "x" * 10_000, 'sectors must be a list of strings, got "' + "x" * 199 + "\n"),
    ],
    ids=["clean_text", "sectors", "party_a", "articles", "long sectors"],
)
def test_corpus_cache_value_of_the_wrong_type_is_fatal_and_names_the_key(
    config_file, capsys, key, value, message
):
    config = config_file()
    assert main(["ingest", "--config", str(config)]) == 0
    cache = out_dir_of(config) / "corpus.jsonl"
    lines = cache.read_text(encoding="utf-8").splitlines()
    record = json.loads(lines[1])
    (record["articles"][0] if key == "clean_text" else record)[key] = value
    lines[1] = json.dumps(record)
    cache.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["extract", "--config", str(config)]) == 2
    assert f"corrupt corpus cache {cache}, line 2: {message}" in capsys.readouterr().err


def test_truncated_run_file_is_fatal_and_names_file_and_line(config_file, capsys):
    config = config_file()
    assert main(["ingest", "--config", str(config)]) == 0
    assert main(["extract", "--config", str(config), "--variant", "zero-shot"]) == 0
    run = out_dir_of(config) / "runs" / "zero-shot.jsonl"
    line = truncate(run)
    capsys.readouterr()
    assert main(["eval", "--config", str(config)]) == 2
    assert f"corrupt run file {run}, line {line}:" in capsys.readouterr().err


def test_run_record_with_unknown_variant_is_fatal_and_names_file_and_line(
    config_file, capsys
):
    config = config_file()
    assert main(["ingest", "--config", str(config)]) == 0
    assert main(["extract", "--config", str(config), "--variant", "zero-shot"]) == 0
    run = out_dir_of(config) / "runs" / "zero-shot.jsonl"
    lines = run.read_text(encoding="utf-8").splitlines()
    lines[1] = lines[1].replace('"zero-shot"', '"two-shot"')
    run.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["eval", "--config", str(config)]) == 2
    stderr = capsys.readouterr().err
    assert f"corrupt run file {run}, line 2:" in stderr
    assert "two-shot" in stderr


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("subject", 5, "subject must be a string, got 5"),
        ("chunk_index", "0", 'chunk_index must be an integer, got "0"'),
        ("generic_subject", "no", 'generic_subject must be true or false, got "no"'),
    ],
    ids=["subject", "chunk_index", "generic_subject"],
)
def test_run_record_value_of_the_wrong_type_is_fatal_and_names_the_key(
    config_file, capsys, key, value, message
):
    config = config_file()
    assert main(["ingest", "--config", str(config)]) == 0
    assert main(["extract", "--config", str(config), "--variant", "zero-shot"]) == 0
    run = out_dir_of(config) / "runs" / "zero-shot.jsonl"
    lines = run.read_text(encoding="utf-8").splitlines()
    lines[1] = json.dumps({**json.loads(lines[1]), key: value})
    run.write_text("\n".join(lines) + "\n", encoding="utf-8")
    for command in (["eval"], ["sample", "--variant", "zero-shot"]):
        capsys.readouterr()
        assert main([*command, "--config", str(config)]) == 2
        assert f"corrupt run file {run}, line 2: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [("subject", ""), ("object", " \t")], ids=["empty", "blank"])
def test_run_record_with_a_blank_field_is_fatal_to_eval_report_and_sample(
    config_file, capsys, key, value
):
    # no embedder takes a blank text, so eval would fail on it after reading every run
    config = config_file()
    assert main(["ingest", "--config", str(config)]) == 0
    assert main(["extract", "--config", str(config), "--variant", "zero-shot"]) == 0
    run = out_dir_of(config) / "runs" / "zero-shot.jsonl"
    lines = run.read_text(encoding="utf-8").splitlines()
    lines[1] = json.dumps({**json.loads(lines[1]), key: value})
    run.write_text("\n".join(lines) + "\n", encoding="utf-8")
    for command in (["eval"], ["report"], ["sample", "--variant", "zero-shot"]):
        capsys.readouterr()
        assert main([*command, "--config", str(config)]) == 2
        line = fatal_error_line(capsys.readouterr().err)
        assert line == f"error: corrupt run file {run}, line 2: {key} is empty"
    assert not (out_dir_of(config) / "eval_report.json").exists()


_UNDECODABLE = [
    (
        lambda line: re.sub(r'"chunk_index": \d+', '"chunk_index": ' + "1" * 5001, line),
        "Exceeds the limit (4300 digits) for integer string conversion: value has 5001 digits;"
        " use sys.set_int_max_str_digits() to increase the limit",
    ),
    (
        lambda line: "[" * 100_000,
        "maximum recursion depth exceeded while decoding a JSON array from a unicode string",
    ),
]


@pytest.mark.parametrize("edit, message", _UNDECODABLE, ids=["long integer", "deep nesting"])
def test_run_record_json_python_cannot_decode_is_fatal_and_named_by_the_errors_text(
    config_file, capsys, edit, message
):
    config = config_file()
    assert main(["ingest", "--config", str(config)]) == 0
    assert main(["extract", "--config", str(config), "--variant", "zero-shot"]) == 0
    run = out_dir_of(config) / "runs" / "zero-shot.jsonl"
    lines = run.read_text(encoding="utf-8").splitlines()
    lines[0] = edit(lines[0])
    run.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["eval", "--config", str(config)]) == 2
    line = fatal_error_line(capsys.readouterr().err)
    assert line == f"error: corrupt run file {run}, line 1: {message}"


@pytest.mark.parametrize("edit, message", _UNDECODABLE, ids=["long integer", "deep nesting"])
def test_config_json_python_cannot_decode_is_fatal_and_named_by_the_errors_text(
    config_file, capsys, edit, message
):
    config = config_file()
    config.write_text(edit('{"chunk_index": 0}'), encoding="utf-8")
    assert main(["ingest", "--config", str(config)]) == 2
    line = fatal_error_line(capsys.readouterr().err)
    assert line == f"error: corrupt config file {config}: {message}"


def test_truncated_run_stats_file_is_fatal_and_names_file_and_line(config_file, capsys):
    config = config_file()
    assert main(["ingest", "--config", str(config)]) == 0
    assert main(["extract", "--config", str(config), "--variant", "zero-shot"]) == 0
    sidecar = out_dir_of(config) / "runs" / "zero-shot.stats.json"
    truncate(sidecar)
    capsys.readouterr()
    assert main(["eval", "--config", str(config)]) == 2
    stderr = capsys.readouterr().err
    assert f"corrupt run stats file {sidecar}:" in stderr
    assert re.search(r"line \d+ column \d+", stderr)


def test_run_file_cut_at_a_line_boundary_is_fatal_and_names_the_counts(config_file, capsys):
    config = config_file()
    assert main(["ingest", "--config", str(config)]) == 0
    assert main(["extract", "--config", str(config), "--variant", "zero-shot"]) == 0
    run = out_dir_of(config) / "runs" / "zero-shot.jsonl"
    lines = run.read_text(encoding="utf-8").splitlines(keepends=True)
    assert len(lines) > 10
    run.write_text("".join(lines[:10]), encoding="utf-8")
    message = f"corrupt run file {run}: holds 10 triples, its stats say {len(lines)}"
    for command in (["eval"], ["sample", "--variant", "zero-shot"]):
        capsys.readouterr()
        assert main([*command, "--config", str(config)]) == 2
        assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "content", ["[]", '{"stats": [1, 2]}', '{"stats": {"lines_parsed": "many"}}']
)
def test_run_stats_file_of_the_wrong_shape_is_fatal_and_names_file(
    config_file, capsys, content
):
    config = config_file()
    assert main(["ingest", "--config", str(config)]) == 0
    assert main(["extract", "--config", str(config), "--variant", "zero-shot"]) == 0
    sidecar = out_dir_of(config) / "runs" / "zero-shot.stats.json"
    sidecar.write_text(content, encoding="utf-8")
    capsys.readouterr()
    assert main(["eval", "--config", str(config)]) == 2
    stderr = capsys.readouterr().err
    assert f"corrupt run stats file {sidecar}:" in stderr
    assert "Traceback" not in stderr


@pytest.mark.parametrize(
    "content, message",
    [
        ("[]", "the top level must be an object, got []"),
        ('"zero-shot"', 'the top level must be an object, got "zero-shot"'),
        ('{"variant": 3}', "variant must be one of zero-shot, one-shot, few-shot, negative-examples, got 3"),
        (
            '{"note": 1}',
            "unknown key note; valid keys: endpoint_fingerprint, prompt_fingerprint, stats, variant",
        ),
    ],
    ids=["list", "string", "variant", "unknown key"],
)
def test_run_stats_file_of_the_wrong_shape_names_what_is_wrong(
    config_file, capsys, content, message
):
    config = config_file()
    assert main(["ingest", "--config", str(config)]) == 0
    assert main(["extract", "--config", str(config), "--variant", "zero-shot"]) == 0
    sidecar = out_dir_of(config) / "runs" / "zero-shot.stats.json"
    sidecar.write_text(content, encoding="utf-8")
    capsys.readouterr()
    assert main(["eval", "--config", str(config)]) == 2
    assert fatal_error_line(capsys.readouterr().err).endswith(
        f"corrupt run stats file {sidecar}: {message}"
    )


@pytest.mark.parametrize(
    "edit, message",
    [
        ({"endpoint_fingerprint": ["a"]}, 'endpoint_fingerprint must be a string, got ["a"]'),
        ({"prompt_fingerprint": 5}, "prompt_fingerprint must be a string, got 5"),
        ({"stats": {"chunks_failed": True}}, "stats.chunks_failed must be an integer, got true"),
        ({"stats": {"lines_parsed": "5"}}, 'stats.lines_parsed must be an integer, got "5"'),
    ],
    ids=["endpoint_fingerprint", "prompt_fingerprint", "chunks_failed", "lines_parsed"],
)
def test_run_stats_value_of_the_wrong_type_is_fatal_and_names_the_key(
    config_file, capsys, edit, message
):
    config = config_file()
    assert main(["ingest", "--config", str(config)]) == 0
    assert main(["extract", "--config", str(config), "--variant", "zero-shot"]) == 0
    sidecar = out_dir_of(config) / "runs" / "zero-shot.stats.json"
    meta = json.loads(sidecar.read_text(encoding="utf-8"))
    if "stats" in edit:
        edit = {"stats": {**meta["stats"], **edit["stats"]}}
    sidecar.write_text(json.dumps({**meta, **edit}), encoding="utf-8")
    capsys.readouterr()
    assert main(["eval", "--config", str(config)]) == 2
    assert fatal_error_line(capsys.readouterr().err).endswith(
        f"corrupt run stats file {sidecar}: {message}"
    )


def test_run_record_naming_another_variant_is_fatal_and_names_file_and_line(
    config_file, capsys
):
    config = config_file()
    assert main(["ingest", "--config", str(config)]) == 0
    assert main(["extract", "--config", str(config), "--variant", "zero-shot"]) == 0
    run = out_dir_of(config) / "runs" / "zero-shot.jsonl"
    lines = run.read_text(encoding="utf-8").splitlines()
    lines[-1] = lines[-1].replace('"zero-shot"', '"one-shot"')
    run.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["eval", "--config", str(config)]) == 2
    stderr = capsys.readouterr().err
    assert f"corrupt run file {run}, line {len(lines)}: record names one-shot" in stderr


def test_two_run_files_holding_one_variant_are_fatal_and_both_named(config_file, capsys):
    config = config_file()
    assert main(["ingest", "--config", str(config)]) == 0
    assert main(["extract", "--config", str(config), "--variant", "zero-shot"]) == 0
    runs = out_dir_of(config) / "runs"
    for suffix in (".jsonl", ".stats.json"):
        shutil.copy(runs / f"zero-shot{suffix}", runs / f"copy{suffix}")
    capsys.readouterr()
    assert main(["eval", "--config", str(config)]) == 2
    message = f"run files {runs / 'copy.jsonl'} and {runs / 'zero-shot.jsonl'} both hold zero-shot"
    assert message in capsys.readouterr().err


def test_runs_from_two_endpoint_settings_are_not_scored_together(config_file, capsys):
    config = config_file()
    assert main(["run-all", "--config", str(config)]) == 0
    assert main(["extract", "--config", str(config), "--variant", "zero-shot", "--seed", "7"]) == 0
    capsys.readouterr()
    assert main(["eval", "--config", str(config)]) == 2
    stderr = capsys.readouterr().err
    assert "runs few-shot and zero-shot come from different endpoint settings" in stderr
    # a run without a sidecar records no endpoint, so it is scored with any
    (out_dir_of(config) / "runs" / "zero-shot.stats.json").unlink()
    assert main(["eval", "--config", str(config)]) == 0


def test_runs_from_two_corpora_are_not_scored_together(config_file, capsys):
    config = config_file()
    assert main(["ingest", "--config", str(config)]) == 0
    assert main(["extract", "--config", str(config)]) == 0
    # the same output directory, a smaller corpus: zero-shot's run is replaced alone
    config_file(corpus={"source_dir": str(Path(__file__).parents[1] / "demos" / "data")})
    assert main(["ingest", "--config", str(config)]) == 0
    assert main(["extract", "--config", str(config), "--variant", "zero-shot"]) == 0
    runs = out_dir_of(config) / "runs"
    totals = {}
    for name in ("few-shot", "zero-shot"):
        stats = json.loads((runs / f"{name}.stats.json").read_text(encoding="utf-8"))["stats"]
        totals[name] = stats["chunks_processed"] + stats["chunks_failed"]
    assert totals["few-shot"] != totals["zero-shot"]
    capsys.readouterr()
    assert main(["eval", "--config", str(config)]) == 2
    assert (
        f"runs few-shot ({totals['few-shot']} chunks) and zero-shot ({totals['zero-shot']} chunks)"
        " come from different corpora" in capsys.readouterr().err
    )
    assert not (out_dir_of(config) / "eval_report.json").exists()


def test_run_record_with_an_undeclared_key_is_fatal_and_names_file_and_line(
    config_file, capsys
):
    config = config_file()
    assert main(["ingest", "--config", str(config)]) == 0
    assert main(["extract", "--config", str(config), "--variant", "zero-shot"]) == 0
    run = out_dir_of(config) / "runs" / "zero-shot.jsonl"
    lines = run.read_text(encoding="utf-8").splitlines()
    lines[2] = json.dumps({**json.loads(lines[2]), "confidence": 0.9})
    run.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["eval", "--config", str(config)]) == 2
    stderr = capsys.readouterr().err
    assert f"corrupt run file {run}, line 3:" in stderr
    assert "confidence" in stderr


def test_truncated_eval_report_is_fatal_and_names_file_and_line(config_file, capsys):
    config = config_file()
    assert main(["ingest", "--config", str(config)]) == 0
    assert main(["extract", "--config", str(config), "--variant", "zero-shot"]) == 0
    assert main(["eval", "--config", str(config)]) == 0
    report = out_dir_of(config) / "eval_report.json"
    truncate(report)
    capsys.readouterr()
    assert main(["report", "--config", str(config)]) == 2
    stderr = capsys.readouterr().err
    assert f"corrupt eval report {report}:" in stderr
    assert re.search(r"line \d+ column \d+", stderr)


@pytest.mark.parametrize("value", ["0.5", None, True], ids=["string", "null", "true"])
def test_eval_report_value_of_the_wrong_type_is_fatal_and_names_the_key(
    config_file, capsys, value
):
    config = config_file()
    assert main(["ingest", "--config", str(config)]) == 0
    assert main(["extract", "--config", str(config), "--variant", "zero-shot"]) == 0
    assert main(["eval", "--config", str(config)]) == 0
    report = out_dir_of(config) / "eval_report.json"
    content = json.loads(report.read_text(encoding="utf-8"))
    content["variants"]["zero-shot"]["exact"]["precision"] = value
    report.write_text(json.dumps(content), encoding="utf-8")
    capsys.readouterr()
    assert main(["report", "--config", str(config)]) == 2
    message = f"variants.zero-shot.exact.precision must be a number, got {json.dumps(value)}"
    assert fatal_error_line(capsys.readouterr().err).endswith(
        f"corrupt eval report {report}: {message}"
    )


@pytest.mark.parametrize("value", [float("nan"), 7.5, -3.0], ids=["nan", "above-one", "negative"])
def test_eval_report_score_outside_zero_to_one_is_fatal_and_names_the_key(
    config_file, capsys, value
):
    config = config_file()
    assert main(["ingest", "--config", str(config)]) == 0
    assert main(["extract", "--config", str(config), "--variant", "zero-shot"]) == 0
    assert main(["eval", "--config", str(config)]) == 0
    report = out_dir_of(config) / "eval_report.json"
    content = json.loads(report.read_text(encoding="utf-8"))
    content["variants"]["zero-shot"]["exact"]["precision"] = value
    report.write_text(json.dumps(content), encoding="utf-8")  # nan is written as NaN
    capsys.readouterr()
    assert main(["report", "--config", str(config)]) == 2
    message = (
        "variants.zero-shot.exact.precision must be a number in [0, 1], "
        f"got {json.dumps(value)}"
    )
    assert fatal_error_line(capsys.readouterr().err).endswith(
        f"corrupt eval report {report}: {message}"
    )
    assert not (out_dir_of(config) / "report" / "metrics.csv").exists()


_DELETE = object()


@pytest.mark.parametrize(
    "path, value, message",
    [
        ((), ["x"], 'the top level must be an object, got ["x"]'),
        (("variants",), _DELETE, "variants is required"),
        (("variants",), [1, 2], "variants must be an object, got [1, 2]"),
        (("variants", "zero-shot"), "good", 'variants.zero-shot must be an object, got "good"'),
        (("variants", "zero-shot", "semantic"), _DELETE, "variants.zero-shot.semantic is required"),
        (
            ("variants", "zero-shot", "exact"),
            [0.5],
            "variants.zero-shot.exact must be an object, got [0.5]",
        ),
        (
            ("variants", "zero-shot", "exact", "recall"),
            _DELETE,
            "variants.zero-shot.exact.recall is required",
        ),
        (
            ("variants", "zero-shot", "exact", "note"),
            "x",
            "unknown key variants.zero-shot.exact.note; valid keys: assignment, f1, pairs, "
            "precision, recall, semantic_threshold, unmatched_gold, unmatched_predicted",
        ),
    ],
    ids=[
        "top level", "no variants", "variants list", "variant string", "no semantic",
        "exact list", "no recall", "exact note",
    ],
)
def test_eval_report_of_the_wrong_shape_names_the_key(config_file, capsys, path, value, message):
    config = config_file()
    assert main(["ingest", "--config", str(config)]) == 0
    assert main(["extract", "--config", str(config), "--variant", "zero-shot"]) == 0
    assert main(["eval", "--config", str(config)]) == 0
    report = out_dir_of(config) / "eval_report.json"
    content = json.loads(report.read_text(encoding="utf-8"))
    if path:
        *parents, key = path
        parent = content
        for name in parents:
            parent = parent[name]
        if value is _DELETE:
            del parent[key]
        else:
            parent[key] = value
    else:
        content = value
    report.write_text(json.dumps(content), encoding="utf-8")
    capsys.readouterr()
    assert main(["report", "--config", str(config)]) == 2
    line = fatal_error_line(capsys.readouterr().err)
    assert f"corrupt eval report {report}: {message}" in line


@pytest.mark.parametrize("module", ["triplex", "triplex.cli"])
def test_module_form_runs_the_cli(module, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(triplex.__file__).parent.parent))
    help_run = subprocess.run(
        [sys.executable, "-m", module, "--help"], capture_output=True, text=True, env=env
    )
    assert help_run.returncode == 0
    assert "usage: triplex" in help_run.stdout
    missing = tmp_path / "absent.json"
    bad_run = subprocess.run(
        [sys.executable, "-m", module, "ingest", "--config", str(missing)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert bad_run.returncode == 2
    assert "config file not found" in bad_run.stderr


# ---------------------------------------------------------------------------
# ingest
# ---------------------------------------------------------------------------


def test_ingest_writes_corpus_cache(config_file, capsys):
    config = config_file()
    assert main(["ingest", "--config", str(config)]) == 0
    stdout = capsys.readouterr().out
    assert "3 documents, 0 load errors" in stdout
    cache = out_dir_of(config) / "corpus.jsonl"
    assert cache.is_file()
    assert len(cache.read_text(encoding="utf-8").splitlines()) == 3


def test_ingest_rerun_is_byte_identical(config_file):
    config = config_file()
    cache = out_dir_of(config) / "corpus.jsonl"
    assert main(["ingest", "--config", str(config)]) == 0
    first = cache.read_bytes()
    assert main(["ingest", "--config", str(config)]) == 0
    assert cache.read_bytes() == first


def test_ingest_with_unparseable_file_partially_succeeds(
    config_file, corpus_with_errors_dir, capsys
):
    config = config_file(corpus={"source_dir": str(corpus_with_errors_dir)})
    rc = main(["ingest", "--config", str(config)])
    captured = capsys.readouterr()
    assert rc == 1
    assert "2 documents, 1 load errors" in captured.out
    assert "truncated.xml" in captured.err
    assert (out_dir_of(config) / "corpus.jsonl").is_file()


def test_ingest_of_an_agreement_that_cannot_be_read_exits_1_naming_a_read_error(
    config_file, corpus_dir, tmp_path, capsys
):
    source = tmp_path / "corpus"
    shutil.copytree(corpus_dir, source)
    (source / "unreadable.xml").mkdir()  # fails to open even as root, where mode 000 still reads
    config = config_file(corpus={"source_dir": str(source)})
    assert main(["ingest", "--config", str(config)]) == 1
    captured = capsys.readouterr()
    assert "3 documents, 1 load errors" in captured.out
    assert captured.err.startswith("  skipped unreadable.xml: read error: ")


# ---------------------------------------------------------------------------
# extract / eval / report / sample
# ---------------------------------------------------------------------------


def test_extract_single_variant_writes_one_run(config_file):
    config = config_file()
    assert main(["ingest", "--config", str(config)]) == 0
    assert main(["extract", "--config", str(config), "--variant", "few-shot"]) == 0
    runs = out_dir_of(config) / "runs"
    assert sorted(p.name for p in runs.glob("*.jsonl")) == ["few-shot.jsonl"]
    assert (runs / "few-shot.stats.json").is_file()


def test_extract_all_variants_writes_four_runs(config_file):
    config = config_file()
    assert main(["ingest", "--config", str(config)]) == 0
    assert main(["extract", "--config", str(config), "--variant", "all"]) == 0
    runs = out_dir_of(config) / "runs"
    assert sorted(p.name for p in runs.glob("*.jsonl")) == sorted(
        f"{v.value}.jsonl" for v in PromptVariant
    )


def test_eval_report_structure(config_file):
    config = config_file()
    assert main(["ingest", "--config", str(config)]) == 0
    assert main(["extract", "--config", str(config)]) == 0
    assert main(["eval", "--config", str(config)]) == 0
    report = json.loads((out_dir_of(config) / "eval_report.json").read_text(encoding="utf-8"))
    header = report["header"]
    assert header["recall_denominator"] == "full gold set size"
    assert header["embedding_model"] == "mock (hashed character trigrams)"
    assert header["gold_size"] == 100
    assert header["seed"] == 42
    assert header["semantic_threshold"] == 0.75
    assert set(report["variants"]) == {v.value for v in PromptVariant}
    for entry in report["variants"].values():
        for mode in ("exact", "partial", "semantic"):
            for key in ("precision", "recall", "f1", "pairs"):
                assert key in entry[mode]
        assert 0.0 <= entry["redundancy"] <= 1.0
        assert 0.0 <= entry["jsd_to_gold"] <= 1.0
        assert 0.0 <= entry["coverage"] <= 1.0
        assert entry["n_predicted"] >= 0


def test_report_writes_bundle(config_file):
    config = config_file()
    for command in (["ingest"], ["extract"], ["eval"], ["report"]):
        assert main(command + ["--config", str(config)]) == 0
    report_dir = out_dir_of(config) / "report"
    names = sorted(p.name for p in report_dir.iterdir())
    assert names == [
        "freq_few-shot.svg",
        "freq_negative-examples.svg",
        "freq_one-shot.svg",
        "freq_zero-shot.svg",
        "heatmap.svg",
        "metrics.csv",
        "metrics.txt",
        "report.json",
    ]
    # a run deleted since leaves no chart behind: the files are those report.json lists
    for path in (out_dir_of(config) / "runs").glob("one-shot.*"):
        path.unlink()
    for command in (["eval"], ["report"]):
        assert main(command + ["--config", str(config)]) == 0
    listed = json.loads((report_dir / "report.json").read_text(encoding="utf-8"))["files"]
    assert sorted(p.name for p in report_dir.iterdir()) == listed
    assert listed == [name for name in names if name != "freq_one-shot.svg"]


def test_report_refuses_an_eval_report_of_other_variants(config_file, capsys):
    config = config_file()
    report_path = out_dir_of(config) / "eval_report.json"
    for command in (["ingest"], ["extract", "--variant", "zero-shot"], ["eval"]):
        assert main(command + ["--config", str(config)]) == 0
    assert main(["extract", "--config", str(config)]) == 0
    capsys.readouterr()
    assert main(["report", "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert f"eval report {report_path} scores zero-shot but the runs hold " in err
    assert "few-shot, negative-examples, one-shot, zero-shot; run eval again" in err
    assert not (out_dir_of(config) / "report").exists()
    # a run deleted after eval is stale the other way round
    assert main(["eval", "--config", str(config)]) == 0
    (out_dir_of(config) / "runs" / "one-shot.jsonl").unlink()
    capsys.readouterr()
    assert main(["report", "--config", str(config)]) == 2
    assert "run eval again" in capsys.readouterr().err
    assert main(["eval", "--config", str(config)]) == 0
    assert main(["report", "--config", str(config)]) == 0


def test_report_refuses_an_eval_report_of_other_runs(config_file, capsys):
    config = config_file()
    for command in (["ingest"], ["extract"], ["eval"]):
        assert main(command + ["--config", str(config)]) == 0
    report_path = out_dir_of(config) / "eval_report.json"
    scored = json.loads(report_path.read_text(encoding="utf-8"))["variants"]["few-shot"]
    # the same variants, extracted again from a smaller corpus after eval
    config_file(corpus={"limit": 2})
    for command in (["ingest"], ["extract"]):
        assert main(command + ["--config", str(config)]) == 0
    run = out_dir_of(config) / "runs" / "few-shot.jsonl"
    holds = len(run.read_text(encoding="utf-8").splitlines())
    assert holds != scored["n_predicted"]
    capsys.readouterr()
    assert main(["report", "--config", str(config)]) == 2
    assert (
        f"eval report {report_path} scores {scored['n_predicted']} few-shot triples"
        f" but the run holds {holds}; run eval again" in capsys.readouterr().err
    )
    assert not (out_dir_of(config) / "report").exists()
    assert main(["eval", "--config", str(config)]) == 0
    assert main(["report", "--config", str(config)]) == 0


def test_eval_embeds_every_field_string_in_one_transport_call(config_file, monkeypatch):
    config = config_file()
    for command in (["ingest"], ["extract"]):
        assert main(command + ["--config", str(config)]) == 0
    client_calls, transport_calls = [], []

    def counted(calls, embed):
        def wrapper(self, texts):
            calls.append(len(texts))
            return embed(self, texts)

        return wrapper

    monkeypatch.setattr(LlmClient, "embed", counted(client_calls, LlmClient.embed))
    monkeypatch.setattr(MockTransport, "embed", counted(transport_calls, MockTransport.embed))
    assert main(["eval", "--config", str(config)]) == 0
    assert len(transport_calls) == 1, transport_calls
    # the code table's one call serves every run's semantic match and its redundancy
    assert client_calls == transport_calls, client_calls


def test_eval_scores_a_run_without_triples(config_file):
    config = config_file()
    for command in (["ingest"], ["extract", "--variant", "zero-shot"], ["eval"]):
        assert main(command + ["--config", str(config)]) == 0
    report_path = out_dir_of(config) / "eval_report.json"
    alone = json.loads(report_path.read_text(encoding="utf-8"))["variants"]["zero-shot"]
    # a run file with no records and no sidecar: one-shot, by its file name
    (out_dir_of(config) / "runs" / "one-shot.jsonl").write_text("", encoding="utf-8")
    assert main(["eval", "--config", str(config)]) == 0
    variants = json.loads(report_path.read_text(encoding="utf-8"))["variants"]
    empty = variants["one-shot"]
    assert [empty[mode]["pairs"] for mode in ("exact", "partial", "semantic")] == [0, 0, 0]
    assert (empty["redundancy"], empty["jsd_to_gold"], empty["coverage"]) == (0.0, 1.0, 0.0)
    assert empty["n_predicted"] == 0
    # scoring the empty run beside it leaves the other run's scores as they were
    assert variants["zero-shot"] == alone


def test_sample_never_replaces_a_different_sheet(config_file, capsys):
    config = config_file()
    sample_path = out_dir_of(config) / "annotation_sample.csv"
    for command in (["ingest"], ["extract"], ["sample", "--variant", "zero-shot"]):
        assert main(command + ["--config", str(config)]) == 0
    first = sample_path.read_bytes()
    capsys.readouterr()
    assert main(["sample", "--config", str(config), "--variant", "one-shot"]) == 2
    err = capsys.readouterr().err
    assert f"{sample_path} holds a different annotation sheet; move it away" in err
    assert sample_path.read_bytes() == first
    sample_path.rename(sample_path.with_name("zero-shot-sheet.csv"))
    assert main(["sample", "--config", str(config), "--variant", "one-shot"]) == 0
    assert sample_path.read_bytes() != first


def test_sample_is_deterministic_and_capped(config_file):
    config = config_file(eval={"sample_size": 10})
    assert main(["ingest", "--config", str(config)]) == 0
    assert main(["extract", "--config", str(config), "--variant", "zero-shot"]) == 0
    assert main(["sample", "--config", str(config), "--variant", "zero-shot"]) == 0
    sample_path = out_dir_of(config) / "annotation_sample.csv"
    first = sample_path.read_bytes()
    rows = first.decode("utf-8").strip().splitlines()
    assert len(rows) == 11  # header + sample_size rows (run has >10 triples)
    assert main(["sample", "--config", str(config), "--variant", "zero-shot"]) == 0
    assert sample_path.read_bytes() == first


def test_sample_missing_run_is_fatal(config_file, capsys):
    config = config_file()
    assert main(["ingest", "--config", str(config)]) == 0
    assert main(["sample", "--config", str(config), "--variant", "few-shot"]) == 2
    assert "run file not found" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# run-all and overrides
# ---------------------------------------------------------------------------


def test_run_all_produces_full_artifact_tree(config_file):
    config = config_file()
    assert main(["run-all", "--config", str(config)]) == 0
    out = out_dir_of(config)
    assert (out / "corpus.jsonl").is_file()
    assert len(list((out / "runs").glob("*.jsonl"))) == 4
    assert (out / "eval_report.json").is_file()
    assert len(list((out / "report").iterdir())) == 8


def test_run_all_eval_report_matches_golden(tmp_path, golden_dir):
    # covers every match mode, the partial block included
    assert run_all_eval_report(tmp_path) == (golden_dir / "eval_report.json").read_bytes()


def test_run_all_report_and_refined_run_match_golden(tmp_path, golden_dir):
    # the charts, tables and report.json, and a run whose generic fields refinement replaced
    out = run_all(tmp_path)
    stats = json.loads((out / "runs" / "negative-examples.stats.json").read_text(encoding="utf-8"))
    assert stats["stats"]["refined_count"] == 3
    pinned = run_all_pinned(out)
    assert len(pinned) == 9
    assert pinned == {name: (golden_dir / name).read_bytes() for name in pinned}


def test_readme_quick_start_tree_matches_its_manifest(tmp_path, golden_dir):
    manifest = quickstart_manifest(tmp_path)
    assert len(manifest.splitlines()) == 19
    assert manifest == (golden_dir / "quickstart.sha256").read_text(encoding="utf-8")


def test_run_all_propagates_partial_failures(config_file, corpus_with_errors_dir):
    config = config_file(corpus={"source_dir": str(corpus_with_errors_dir)})
    assert main(["run-all", "--config", str(config)]) == 1


def test_seed_override_changes_results_and_is_recorded(config_file, tmp_path):
    config = config_file()
    out_a, out_b, out_c = (str(tmp_path / name) for name in ("a", "b", "c"))
    assert main(["run-all", "--config", str(config), "--out", out_a]) == 0
    assert main(["run-all", "--config", str(config), "--out", out_b, "--seed", "7"]) == 0
    assert main(["run-all", "--config", str(config), "--out", out_c, "--seed", "7"]) == 0
    report_b = json.loads((Path(out_b) / "eval_report.json").read_text(encoding="utf-8"))
    assert report_b["header"]["seed"] == 7
    run = "runs/zero-shot.jsonl"
    assert (Path(out_a) / run).read_bytes() != (Path(out_b) / run).read_bytes()
    assert (Path(out_b) / run).read_bytes() == (Path(out_c) / run).read_bytes()


def test_out_override_redirects_artifacts(config_file, tmp_path):
    config = config_file()
    override = tmp_path / "elsewhere"
    assert main(["ingest", "--config", str(config), "--out", str(override)]) == 0
    assert (override / "corpus.jsonl").is_file()
    assert not (out_dir_of(config) / "corpus.jsonl").exists()


def test_artifacts_contain_no_absolute_output_paths(config_file):
    config = config_file()
    assert main(["run-all", "--config", str(config)]) == 0
    out = out_dir_of(config)
    for path in sorted(out.rglob("*")):
        if path.is_file():
            assert str(out).encode("utf-8") not in path.read_bytes(), path
