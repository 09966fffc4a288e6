"""Pipeline configuration: one JSON file, fully validated before any work.

Relative paths inside the file are resolved against the file's own directory
so a config can be archived next to its corpus. Command-line flags override
individual fields after loading. Each settings section is built through its
dataclass, the one declaration of its keys' defaults, types and ranges.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path

from .artifacts import from_json, read_json, reject_unknown, typed
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

_SECTIONS = ("corpus", "endpoint", "prompts", "eval")
_TOP_KEYS = (*_SECTIONS, "output_dir", "generic_terms_file")


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
        if not 0.0 < self.redundancy_threshold <= 1.0:
            raise ConfigurationError(
                f"redundancy_threshold must be in (0, 1], got {self.redundancy_threshold}"
            )
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
    raw = read_json(config_path, "config file", partial(typed, "the top level", hint=dict))
    reject_unknown("", raw, _TOP_KEYS)
    sections = {name: typed(name, raw.get(name, {}), dict) for name in _SECTIONS}

    def find(key: str, default: Path | None = None, exists=Path.is_file) -> Path | None:
        # an absent, null or empty path key selects the default
        name, _, field = key.rpartition(".")
        value = (sections[name] if name else raw).get(field)
        if value is None or value == "":
            return default
        found = config_path.parent / typed(key, value, str)
        if not exists(found):
            raise ConfigurationError(f"{key} not found: {found}")
        return found

    source_dir = find("corpus.source_dir", exists=Path.is_dir)
    if source_dir is None:
        raise ConfigurationError("config lacks corpus.source_dir")
    stopwords = find("corpus.stopwords_file")
    fillers = find("corpus.filler_terms_file")
    preprocess = from_json(
        PreprocessConfig,
        sections["corpus"],
        "corpus",
        ("source_dir", "stopwords_file", "filler_terms_file", "limit"),
        stopwords=read_term_file(stopwords) if stopwords else default_stopwords(),
        domain_filler_terms=read_term_file(fillers) if fillers else default_filler_terms(),
    )
    reject_unknown("prompts.", sections["prompts"], ("template_dir", "examples_file"))
    generic = find("generic_terms_file")
    gold_path = find("eval.gold_path", sample_gold_path())
    eval_settings = from_json(
        EvalSettings, sections["eval"], "eval", ("gold_path",), gold_path=gold_path
    )
    endpoint = from_json(EndpointConfig, sections["endpoint"], "endpoint")
    if seed is not None:
        endpoint = replace(endpoint, seed=seed)
        eval_settings = replace(eval_settings, seed=seed)
    return PipelineConfig(
        source_dir=source_dir,
        output_dir=(
            Path(out) if out is not None
            else config_path.parent / typed("output_dir", raw.get("output_dir", "out"), str)
        ),
        preprocess=preprocess,
        endpoint=endpoint,
        template_dir=find("prompts.template_dir", default_prompt_dir(), Path.is_dir),
        examples_file=find("prompts.examples_file", default_examples_path()),
        eval=eval_settings,
        generic_terms=read_term_file(generic) if generic else default_generic_terms(),
        corpus_limit=typed("corpus.limit", sections["corpus"].get("limit"), int | None),
    )
