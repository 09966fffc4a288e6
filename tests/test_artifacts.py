"""The artifact layer: byte-exact atomic writers and readers that name corrupt input."""

from __future__ import annotations

import dataclasses
import io
import json
import os
import re
import tracemalloc
from collections.abc import Callable
from pathlib import Path
from typing import NamedTuple

import pytest

from triplex import artifacts
from triplex.artifacts import read_json, read_jsonl, write_json, write_jsonl, write_text
from triplex.cli import main
from triplex.errors import ConfigurationError
from triplex.extraction import ExtractionRun, Triple, write_run
from triplex.prompting import PromptVariant


def test_write_text_keeps_every_byte(tmp_path):
    path = tmp_path / "sheet.csv"
    write_text(path, "a,b\r\nZürich,“x”\r\n")
    assert path.read_bytes() == "a,b\r\nZürich,“x”\r\n".encode("utf-8")


def test_json_encodings(tmp_path):
    write_json(tmp_path / "a.json", {"b": 1, "a": ["é"]})
    assert (tmp_path / "a.json").read_text(encoding="utf-8") == (
        '{\n  "a": [\n    "\\u00e9"\n  ],\n  "b": 1\n}\n'
    )
    write_jsonl(tmp_path / "a.jsonl", [{"b": 1, "a": "é"}, [2]])
    assert (tmp_path / "a.jsonl").read_text(encoding="utf-8") == '{"b": 1, "a": "é"}\n[2]\n'
    write_jsonl(tmp_path / "empty.jsonl", [])
    assert (tmp_path / "empty.jsonl").read_bytes() == b""


def test_writer_creates_the_parent_directory(tmp_path):
    write_text(tmp_path / "out" / "runs" / "x.txt", "x")
    assert (tmp_path / "out" / "runs" / "x.txt").read_text(encoding="utf-8") == "x"


def _fail_replace(*_args, **_kwargs):
    raise OSError("disk full")


@pytest.mark.parametrize(
    "write",
    [
        lambda path: write_text(path, "new"),
        lambda path: write_json(path, {"new": True}),
        lambda path: write_jsonl(path, [{"new": True}]),
    ],
    ids=["text", "json", "jsonl"],
)
def test_failed_replace_keeps_the_old_artifact_and_leaves_no_temp_file(
    tmp_path, monkeypatch, write
):
    path = tmp_path / "artifact"
    path.write_bytes(b"old bytes")
    monkeypatch.setattr(artifacts.os, "replace", _fail_replace)
    message = f"^cannot write {re.escape(str(path))}: disk full$"
    with pytest.raises(ConfigurationError, match=message):
        write(path)
    assert path.read_bytes() == b"old bytes"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["artifact"]


def test_failed_replace_during_ingest_keeps_the_cache(config_file, monkeypatch):
    config = config_file()
    assert main(["ingest", "--config", str(config)]) == 0
    out = Path(json.loads(config.read_text(encoding="utf-8"))["output_dir"])
    before = (out / "corpus.jsonl").read_bytes()
    monkeypatch.setattr(os, "replace", _fail_replace)
    assert main(["ingest", "--config", str(config)]) == 2
    assert (out / "corpus.jsonl").read_bytes() == before
    assert list(out.rglob("*.tmp")) == []


def _open_failing_after(writes: int):
    """An ``open`` whose handles write ``writes`` strings, then raise ``OSError`` on the next."""

    class Handle(io.TextIOWrapper):
        written = 0

        def write(self, text):
            if self.written == writes:
                raise OSError("disk full")
            self.written += 1
            return super().write(text)

    def fake_open(file, mode, encoding, newline):
        assert mode == "w"
        return Handle(open(file, "wb"), encoding=encoding, newline=newline)

    return fake_open


def test_unencodable_record_partway_raises_and_keeps_the_old_artifact(tmp_path):
    path = tmp_path / "artifact.jsonl"
    path.write_bytes(b"old bytes")
    with pytest.raises(TypeError, match="not JSON serializable"):
        write_jsonl(path, [{"n": 1}, {"n": 2}, {"n": object()}, {"n": 4}])
    assert path.read_bytes() == b"old bytes"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["artifact.jsonl"]


def test_failed_write_partway_keeps_the_old_artifact_and_leaves_no_temp_file(
    tmp_path, monkeypatch
):
    path = tmp_path / "artifact.jsonl"
    path.write_bytes(b"old bytes")
    monkeypatch.setattr(artifacts, "open", _open_failing_after(2), raising=False)
    message = f"^cannot write {re.escape(str(path))}: disk full$"
    with pytest.raises(ConfigurationError, match=message):
        write_jsonl(path, ({"n": n} for n in range(5)))
    assert path.read_bytes() == b"old bytes"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["artifact.jsonl"]


def test_failed_write_partway_through_ingest_exits_2_and_keeps_the_cache(
    config_file, monkeypatch, capsys
):
    config = config_file()
    assert main(["ingest", "--config", str(config)]) == 0
    out = Path(json.loads(config.read_text(encoding="utf-8"))["output_dir"])
    before = (out / "corpus.jsonl").read_bytes()
    assert before.count(b"\n") > 1
    monkeypatch.setattr(artifacts, "open", _open_failing_after(1), raising=False)
    assert main(["ingest", "--config", str(config)]) == 2
    cache = re.escape(str(out / "corpus.jsonl"))
    assert re.search(f"cannot write {cache}: disk full", capsys.readouterr().err)
    assert (out / "corpus.jsonl").read_bytes() == before
    assert list(out.rglob("*.tmp")) == []


def _writers(count: int) -> dict[str, Callable[[Path], None]]:
    """Each streamed writer, given ``count`` triples built before the call."""
    triples = [
        Triple(
            f"Party {i % 9}", "shall eliminate", f"customs duties on heading {i:05d}",
            f"agreement-{i // 100}", f"article:{i % 100:03d}", i % 4, PromptVariant.FEW_SHOT,
        )
        for i in range(count)
    ]
    run = ExtractionRun(PromptVariant.FEW_SHOT, triples, {}, "endpoint", "prompt")
    records = [{**t._asdict(), "variant": t.variant.value} for t in triples]
    return {
        "write_run": lambda path: write_run(run, path),
        "write_jsonl": lambda path: write_jsonl(path, records),
    }


def _peak_bytes(write: Callable[[Path], None], path: Path) -> int:
    """The most memory ``write(path)`` holds at once beyond what was held before it."""
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        held, _ = tracemalloc.get_traced_memory()
        write(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        if not tracing:
            tracemalloc.stop()
    return peak - held


@pytest.mark.parametrize("writer", ["write_run", "write_jsonl"])
def test_streamed_writer_peaks_below_the_size_of_the_file_it_writes(tmp_path, writer):
    path = tmp_path / "few-shot.jsonl"
    peak = _peak_bytes(_writers(20_000)[writer], path)
    # a writer that joins the lines, then encodes them, holds the file about 2.7 times over
    assert peak < path.stat().st_size


def test_write_run_encodes_each_triple_as_its_line_is_written(tmp_path):
    # transposing the triples into columns first holds about 2.6 MB for these 20,000
    assert _peak_bytes(_writers(20_000)["write_run"], tmp_path / "few-shot.jsonl") < 0.25 * 2**20


def corrupt(path: Path, where: str) -> str:
    """The message prefix a reader gives for a corrupt ``thing``."""
    return f"^corrupt thing {re.escape(str(path))}{where}"


def test_read_jsonl_builds_each_record_and_skips_blank_lines(tmp_path):
    path = tmp_path / "a.jsonl"
    path.write_text('{"n": 1}\n\n  \n{"n": 2}\n', encoding="utf-8")
    assert read_jsonl(path, "thing", lambda r: r["n"]) == [1, 2]


@pytest.mark.parametrize(
    "line",
    ['{"n": 1', '{"m": 1}', "[1]", '{"n": "x"}'],
    ids=["truncated", "missing key", "not an object", "build fails"],
)
def test_read_jsonl_names_kind_file_and_line(tmp_path, line):
    path = tmp_path / "a.jsonl"
    path.write_text('{"n": 1}\n' + line + "\n", encoding="utf-8")

    def build(record):
        if not isinstance(record["n"], int):
            raise ConfigurationError("n must be an integer")
        return record.get("n")

    with pytest.raises(ConfigurationError, match=corrupt(path, ", line 2: ")):
        read_jsonl(path, "thing", build)


def test_reader_gives_a_configuration_error_by_its_message_and_others_by_class(tmp_path):
    path = tmp_path / "a.jsonl"
    path.write_text('{"n": "x"}\n{"m": 1}\n', encoding="utf-8")

    def build(record):
        if record.get("n") == "x":
            raise ConfigurationError("n must be an integer, got \"x\"")
        return record["n"]

    with pytest.raises(ConfigurationError) as excinfo:
        read_jsonl(path, "thing", build)
    assert str(excinfo.value) == f'corrupt thing {path}, line 1: n must be an integer, got "x"'
    path.write_text('{"m": 1}\n', encoding="utf-8")
    with pytest.raises(ConfigurationError) as excinfo:
        read_jsonl(path, "thing", build)
    assert str(excinfo.value) == f"corrupt thing {path}, line 1: KeyError('n')"


def test_read_json_names_kind_and_file(tmp_path):
    path = tmp_path / "a.json"
    path.write_text('{"a": ', encoding="utf-8")
    with pytest.raises(ConfigurationError, match=corrupt(path, ": .*line 1 column")):
        read_json(path, "thing", dict)
    path.write_text("[]", encoding="utf-8")
    with pytest.raises(ConfigurationError, match=corrupt(path, ": AttributeError")):
        read_json(path, "thing", lambda obj: obj.get("a"))


def test_reader_rejects_a_missing_or_undecodable_file(tmp_path):
    with pytest.raises(ConfigurationError, match="^thing not found: "):
        read_json(tmp_path / "absent.json", "thing", dict)
    path = tmp_path / "latin1.jsonl"
    path.write_bytes('{"a": "Zürich"}\n'.encode("latin-1"))
    with pytest.raises(ConfigurationError, match=corrupt(path, ": ")):
        read_jsonl(path, "thing", dict)


class _Point(NamedTuple):
    x: int
    label: str = "origin"


@dataclasses.dataclass(frozen=True)
class _Counted:
    name: str
    stats: dict[str, int] = dataclasses.field(default_factory=dict)


def test_from_json_builds_a_named_tuple_and_names_a_missing_field():
    assert artifacts.from_json(_Point, {"x": 3}) == _Point(3, "origin")
    assert artifacts.from_json(_Point, {"label": "a", "x": 1}) == _Point(1, "a")
    with pytest.raises(ConfigurationError, match=r"^points\.x is required$"):
        artifacts.from_json(_Point, {"label": "a"}, "points")


def test_from_json_types_a_dict_of_values_item_by_item():
    built = artifacts.from_json(_Counted, {"name": "run", "stats": {"lines_parsed": 4}})
    assert built == _Counted("run", {"lines_parsed": 4})
    message = r'^stats\.lines_parsed must be an integer, got "4"$'
    with pytest.raises(ConfigurationError, match=message):
        artifacts.from_json(_Counted, {"name": "run", "stats": {"lines_parsed": "4"}})
    with pytest.raises(ConfigurationError, match=r"^stats must be an object, got \[4\]$"):
        artifacts.from_json(_Counted, {"name": "run", "stats": [4]})


@pytest.mark.parametrize(
    "obj, message",
    [
        ({"note": 1, "name": 5}, "name must be a string, got 5"),
        ({"note": 1, "name": "run"}, "unknown key note; valid keys: name, stats"),
        ({"note": 1}, "unknown key note; valid keys: name, stats"),
        ({"stats": {}}, "name is required"),
    ],
    ids=["wrong type", "unknown key", "unknown key and missing field", "missing field"],
)
def test_from_json_reports_a_wrong_type_then_an_unknown_key_then_a_missing_field(obj, message):
    with pytest.raises(ConfigurationError, match="^" + re.escape(message) + "$"):
        artifacts.from_json(_Counted, obj)
