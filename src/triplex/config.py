"""Pipeline configuration: one JSON file, fully validated before any work.

Relative paths inside the file are resolved against the file's own directory
so a config can be archived next to its corpus. Command-line flags override
individual fields after loading. Each settings section is built through its
dataclass, the one declaration of its keys' defaults, types and ranges.
"""

from __future__ import annotations

import enum
import json
import types
import typing
from dataclasses import dataclass, replace
from pathlib import Path

from .corpus import PreprocessConfig
from .defaults import (
    default_examples_path,
    default_filler_terms,
    default_generic_terms,
    default_prompt_dir,
    default_stopwords,
    read_term_file,
    sample_gold_path,
)
from .errors import ConfigurationError
from .evaluation import DEFAULT_REDUNDANCY_THRESHOLD, AssignmentPolicy, MatchConfig
from .llmclient import EndpointConfig

__all__ = ["EvalSettings", "PipelineConfig", "load_config"]

_TOP_KEYS = ("corpus", "output_dir", "endpoint", "prompts", "eval", "generic_terms_file")
_JSON_TYPES = {bool: "true or false", int: "an integer", float: "a number", str: "a string"}


@dataclass(frozen=True)
class EvalSettings:
    """The ``eval`` section: gold set, matching, sampling and report settings."""

    gold_path: Path
    semantic_threshold: float = MatchConfig.semantic_threshold
    assignment: AssignmentPolicy = MatchConfig.assignment
    sample_size: int = 100
    seed: int = 42
    redundancy_threshold: float = DEFAULT_REDUNDANCY_THRESHOLD
    frequency_top_k: int = 20
    heatmap_top_k: int = 15

    def __post_init__(self) -> None:
        MatchConfig(semantic_threshold=self.semantic_threshold)  # holds its range check
        if self.sample_size < 0:
            raise ConfigurationError(f"sample_size must not be negative, got {self.sample_size}")
        for name in ("frequency_top_k", "heatmap_top_k"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be at least 1, got {getattr(self, name)}")


@dataclass(frozen=True)
class PipelineConfig:
    source_dir: Path
    output_dir: Path
    preprocess: PreprocessConfig
    endpoint: EndpointConfig
    template_dir: Path
    examples_file: Path
    eval: EvalSettings
    generic_terms: frozenset[str]
    corpus_limit: int | None = None

    def __post_init__(self) -> None:
        if self.corpus_limit is not None and self.corpus_limit < 0:
            raise ConfigurationError(f"corpus.limit must not be negative, got {self.corpus_limit}")

    @property
    def corpus_cache(self) -> Path:
        return self.output_dir / "corpus.jsonl"

    @property
    def runs_dir(self) -> Path:
        return self.output_dir / "runs"

    @property
    def report_dir(self) -> Path:
        return self.output_dir / "report"

    @property
    def eval_report_path(self) -> Path:
        return self.output_dir / "eval_report.json"


def _typed(key: str, value: object, hint: object) -> object:
    """JSON ``value`` of config key ``key`` if it fits the field type ``hint``.

    An int field takes no bool; a float field also takes an int, as a float;
    ``null`` fits only an optional field; an enum field takes a member's value.
    """
    kinds = typing.get_args(hint) if isinstance(hint, types.UnionType) else (hint,)
    kind = kinds[0]
    if (value is None and type(None) in kinds) or type(value) is kind:
        return value
    if kind is float and type(value) is int:
        return float(value)
    if isinstance(kind, enum.EnumMeta):
        valid = [member.value for member in kind]
        if value in valid:
            return kind(value)
        expected = "one of " + ", ".join(valid)
    else:
        expected = _JSON_TYPES[kind] + (" or null" if type(None) in kinds else "")
    raise ConfigurationError(f"{key} must be {expected}, got {json.dumps(value)}")


def _section(raw: dict, name: str) -> dict:
    section = raw.get(name, {})
    if not isinstance(section, dict):
        raise ConfigurationError(
            f"config section {name} must be a JSON object, got {json.dumps(section)}"
        )
    return section


def _reject_unknown(prefix: str, section: dict, valid: typing.Iterable[str]) -> None:
    unknown = sorted(section.keys() - set(valid))
    if unknown:
        raise ConfigurationError(
            f"unknown config key {prefix}{unknown[0]}; valid keys: {', '.join(sorted(valid))}"
        )


def _build(cls: type, name: str, section: dict, paths: tuple[str, ...] = (), **fixed):
    """Build the settings dataclass ``cls`` from config section ``name``.

    ``paths`` are the section's path keys, read by the caller, and ``fixed``
    the fields built from them. Every other key must name a field of ``cls``
    and hold a value of its type; ``cls.__post_init__`` checks the ranges.
    """
    hints = typing.get_type_hints(cls)
    _reject_unknown(f"{name}.", section, (hints.keys() - fixed.keys()) | set(paths))
    values = {
        key: _typed(f"{name}.{key}", value, hints[key])
        for key, value in section.items()
        if key not in paths
    }
    try:
        return cls(**fixed, **values)
    except ConfigurationError as exc:
        # every range check's message starts with the field's name
        raise ConfigurationError(f"{name}.{exc}") from None


def load_config(
    path: str | Path,
    seed: int | None = None,
    out: str | Path | None = None,
) -> PipelineConfig:
    """Load and validate a pipeline config file.

    ``seed`` and ``out`` are command-line overrides. Every referenced path is
    checked here, before any command does work.
    """
    config_path = Path(path)
    if not config_path.is_file():
        raise ConfigurationError(f"config file not found: {config_path}")
    try:
        raw = json.loads(config_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config file {config_path} is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigurationError(f"config file {config_path} must hold a JSON object")
    _reject_unknown("", raw, _TOP_KEYS)
    sections = {name: _section(raw, name) for name in ("corpus", "endpoint", "prompts", "eval")}

    def find(key: str, default: Path | None = None, exists=Path.is_file) -> Path | None:
        # an absent, null or empty path key selects the default
        name, _, field = key.rpartition(".")
        value = (sections[name] if name else raw).get(field)
        if value is None or value == "":
            return default
        found = config_path.parent / _typed(key, value, str)
        if not exists(found):
            raise ConfigurationError(f"{key} not found: {found}")
        return found

    source_dir = find("corpus.source_dir", exists=Path.is_dir)
    if source_dir is None:
        raise ConfigurationError("config lacks corpus.source_dir")
    stopwords = find("corpus.stopwords_file")
    fillers = find("corpus.filler_terms_file")
    preprocess = _build(
        PreprocessConfig,
        "corpus",
        sections["corpus"],
        ("source_dir", "stopwords_file", "filler_terms_file", "limit"),
        stopwords=read_term_file(stopwords) if stopwords else default_stopwords(),
        domain_filler_terms=read_term_file(fillers) if fillers else default_filler_terms(),
    )
    _reject_unknown("prompts.", sections["prompts"], ("template_dir", "examples_file"))
    generic = find("generic_terms_file")
    gold_path = find("eval.gold_path", sample_gold_path())
    eval_settings = _build(
        EvalSettings, "eval", sections["eval"], ("gold_path",), gold_path=gold_path
    )
    endpoint = _build(EndpointConfig, "endpoint", sections["endpoint"])
    if seed is not None:
        endpoint = replace(endpoint, seed=seed)
        eval_settings = replace(eval_settings, seed=seed)
    return PipelineConfig(
        source_dir=source_dir,
        output_dir=(
            Path(out) if out is not None
            else config_path.parent / _typed("output_dir", raw.get("output_dir", "out"), str)
        ),
        preprocess=preprocess,
        endpoint=endpoint,
        template_dir=find("prompts.template_dir", default_prompt_dir(), Path.is_dir),
        examples_file=find("prompts.examples_file", default_examples_path()),
        eval=eval_settings,
        generic_terms=read_term_file(generic) if generic else default_generic_terms(),
        corpus_limit=_typed("corpus.limit", sections["corpus"].get("limit"), int | None),
    )
