"""Config loading: every section built through its settings dataclass, validated once."""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from triplex.cli import load_config, main
from triplex.config import EvalSettings
from triplex.corpus import PreprocessConfig
from triplex.defaults import (
    default_examples_path,
    default_generic_terms,
    default_prompt_dir,
    sample_gold_path,
)
from triplex.errors import ConfigurationError
from triplex.evaluation import AssignmentPolicy
from triplex.llmclient import EndpointConfig


def write(tmp_path: Path, config: object) -> Path:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    return path


def test_minimal_config_loads_to_the_dataclass_defaults(tmp_path, corpus_dir):
    config = load_config(write(tmp_path, {"corpus": {"source_dir": str(corpus_dir)}}))
    assert config.source_dir == corpus_dir
    assert config.output_dir == tmp_path / "out"
    assert config.preprocess == PreprocessConfig()
    assert config.endpoint == EndpointConfig()
    assert config.eval == EvalSettings(gold_path=sample_gold_path())
    assert config.template_dir == default_prompt_dir()
    assert config.examples_file == default_examples_path()
    assert config.generic_terms == default_generic_terms()
    assert config.corpus_limit is None


def test_byte_order_mark_is_ignored(tmp_path, corpus_dir):
    path = write(tmp_path, {"corpus": {"source_dir": str(corpus_dir)}, "eval": {"seed": 7}})
    plain = load_config(path)
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    assert load_config(path) == plain


def test_every_settings_key_is_read(tmp_path, corpus_dir):
    config = load_config(
        write(
            tmp_path,
            {
                "corpus": {
                    "source_dir": str(corpus_dir),
                    "lowercase": True,
                    "collapse_whitespace": False,
                    "max_chunk_chars": 600,
                    "limit": 2,
                },
                "endpoint": {
                    "base_url": "http://model:8000",
                    "model_name": "m",
                    "embedding_model": "e",
                    "temperature": 1,
                    "max_tokens": 10,
                    "timeout_ms": 5,
                    "max_retries": 0,
                    "max_parallel_requests": 2,
                    "seed": None,
                    "profile": "openai",
                    "chat_path": "/chat",
                    "embeddings_path": None,
                },
                "eval": {
                    "semantic_threshold": 1,
                    "assignment": "optimal",
                    "sample_size": 0,
                    "seed": 3,
                    "redundancy_threshold": 0.5,
                    "frequency_top_k": 4,
                    "heatmap_top_k": 5,
                },
            },
        )
    )
    assert config.preprocess == PreprocessConfig(
        lowercase=True, collapse_whitespace=False, max_chunk_chars=600
    )
    assert config.corpus_limit == 2
    assert config.endpoint == EndpointConfig(
        base_url="http://model:8000",
        model_name="m",
        embedding_model="e",
        temperature=1.0,
        max_tokens=10,
        timeout_ms=5,
        max_retries=0,
        max_parallel_requests=2,
        seed=None,
        profile="openai",
        chat_path="/chat",
    )
    assert config.eval == EvalSettings(
        gold_path=sample_gold_path(),
        semantic_threshold=1.0,
        assignment=AssignmentPolicy.OPTIMAL,
        sample_size=0,
        seed=3,
        redundancy_threshold=0.5,
        frequency_top_k=4,
        heatmap_top_k=5,
    )
    # a float setting holds a float, however the JSON spelled the number
    assert type(config.endpoint.temperature) is float
    assert type(config.eval.semantic_threshold) is float


def test_empty_or_null_path_keys_select_the_bundled_defaults(tmp_path, corpus_dir):
    config = load_config(
        write(
            tmp_path,
            {
                "corpus": {"source_dir": str(corpus_dir), "stopwords_file": ""},
                "prompts": {"template_dir": None, "examples_file": ""},
                "generic_terms_file": None,
                "eval": {"gold_path": ""},
            },
        )
    )
    assert config.preprocess == PreprocessConfig()
    assert config.template_dir == default_prompt_dir()
    assert config.examples_file == default_examples_path()
    assert config.generic_terms == default_generic_terms()
    assert config.eval.gold_path == sample_gold_path()


def test_seed_and_out_overrides_are_applied(tmp_path, corpus_dir):
    path = write(
        tmp_path,
        {"corpus": {"source_dir": str(corpus_dir)}, "endpoint": {"seed": 1}, "eval": {"seed": 2}},
    )
    config = load_config(path, seed=7, out=tmp_path / "elsewhere")
    assert config.endpoint.seed == 7
    assert config.eval.seed == 7
    assert config.output_dir == tmp_path / "elsewhere"
    config = load_config(path)
    assert (config.endpoint.seed, config.eval.seed) == (1, 2)


MALFORMED = [
    ("corpus", "max_chunk_chars", "abc", "corpus.max_chunk_chars must be an integer"),
    ("corpus", "max_chunk_chars", True, "corpus.max_chunk_chars must be an integer"),
    ("corpus", "max_chunk_chars", 100, "corpus.max_chunk_chars must be at least 200"),
    ("corpus", "limit", "x", "corpus.limit must be an integer or null"),
    ("corpus", "lowercase", "false", "corpus.lowercase must be true or false"),
    ("corpus", "stopwords_file", 5, "corpus.stopwords_file must be a string"),
    ("eval", "seed", "abc", "eval.seed must be an integer"),
    ("eval", "semantic_threshold", "x", "eval.semantic_threshold must be a number"),
    ("eval", "semantic_threshold", None, "eval.semantic_threshold must be a number"),
    ("eval", "semantic_threshold", 0, "eval.semantic_threshold must be in (0, 1]"),
    ("eval", "semantic_treshold", 0.8, "unknown key eval.semantic_treshold"),
    ("eval", "sample_size", -3, "eval.sample_size must not be negative"),
    ("eval", "assignment", "best", "eval.assignment must be one of greedy, optimal"),
    ("endpoint", "max_parallel_requests", 2.5, "endpoint.max_parallel_requests must be an int"),
    ("endpoint", "temperature", 3, "endpoint.temperature out of range"),
    ("endpoint", "profile", "grpc", "endpoint.profile must be one of ollama, openai"),
    ("endpoint", "seed", "1", "endpoint.seed must be an integer or null"),
    (None, "eval", [1], "eval must be an object, got [1]"),
    (None, "endpoint", [1], "endpoint must be an object, got [1]"),
    (None, "corpus", None, "corpus must be an object, got null"),
    (None, "output_dir", 3, "output_dir must be a string"),
    ("corpus", "limit", -1, "corpus.limit must not be negative, got -1"),
    ("eval", "frequency_top_k", 0, "eval.frequency_top_k must be at least 1, got 0"),
    ("eval", "frequency_top_k", -2, "eval.frequency_top_k must be at least 1, got -2"),
    ("eval", "heatmap_top_k", 0, "eval.heatmap_top_k must be at least 1, got 0"),
    ("eval", "redundancy_threshold", 5.0, "eval.redundancy_threshold must be in (0, 1], got 5.0"),
    ("eval", "redundancy_threshold", -1.0, "eval.redundancy_threshold must be in (0, 1]"),
]


@pytest.mark.parametrize("section, key, value, message", MALFORMED)
def test_malformed_config_is_fatal_and_names_the_key(
    config_file, capsys, section, key, value, message
):
    config = config_file(**({section: {key: value}} if section else {key: value}))
    assert main(["ingest", "--config", str(config)]) == 2
    stderr = capsys.readouterr().err
    assert message in stderr
    assert "Traceback" not in stderr
    with pytest.raises(ConfigurationError, match="^" + re.escape(message)):
        load_config(config)


@pytest.mark.parametrize("section", ["corpus", "endpoint", "prompts", "eval", None])
def test_unknown_key_is_rejected_in_every_section(config_file, capsys, section):
    config = config_file(**({section: {"colour": "red"}} if section else {"colour": "red"}))
    assert main(["ingest", "--config", str(config)]) == 2
    key = f"{section}.colour" if section else "colour"
    assert f"unknown key {key}; valid keys: " in capsys.readouterr().err


def test_path_keys_are_checked_and_not_taken_for_settings(config_file, tmp_path):
    # a field built from a path key cannot be set directly
    with pytest.raises(ConfigurationError, match="unknown key corpus.stopwords"):
        load_config(config_file(corpus={"stopwords": ["the"]}))
    with pytest.raises(ConfigurationError, match="corpus.stopwords_file not found"):
        load_config(config_file(corpus={"stopwords_file": str(tmp_path / "absent.txt")}))
