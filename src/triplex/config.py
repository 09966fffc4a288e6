"""Pipeline configuration: one JSON file, fully validated before any work.

Relative paths inside the file are resolved against the file's own directory
so a config can be archived next to its corpus. Command-line flags override
individual fields after loading.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
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
from .evaluation import AssignmentPolicy
from .llmclient import EndpointConfig

__all__ = ["EvalSettings", "PipelineConfig", "load_config"]

DEFAULT_SEED = 42


@dataclass(frozen=True)
class EvalSettings:
    gold_path: Path
    semantic_threshold: float = 0.75
    assignment: AssignmentPolicy = AssignmentPolicy.GREEDY
    sample_size: int = 100
    seed: int = DEFAULT_SEED
    redundancy_threshold: float = 0.9
    frequency_top_k: int = 20
    heatmap_top_k: int = 15


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


def _resolve(base: Path, value: str) -> Path:
    path = Path(value)
    return path if path.is_absolute() else (base / path)


def _require_file(path: Path, what: str) -> Path:
    if not path.is_file():
        raise ConfigurationError(f"{what} not found: {path}")
    return path


def _require_dir(path: Path, what: str) -> Path:
    if not path.is_dir():
        raise ConfigurationError(f"{what} not found: {path}")
    return path


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
    base = config_path.parent

    corpus_section = raw.get("corpus", {})
    if "source_dir" not in corpus_section:
        raise ConfigurationError("config lacks corpus.source_dir")
    source_dir = _require_dir(_resolve(base, corpus_section["source_dir"]), "corpus directory")

    stopwords = default_stopwords()
    if corpus_section.get("stopwords_file"):
        stopwords = read_term_file(
            _require_file(_resolve(base, corpus_section["stopwords_file"]), "stopwords file")
        )
    fillers = default_filler_terms()
    if corpus_section.get("filler_terms_file"):
        fillers = read_term_file(
            _require_file(
                _resolve(base, corpus_section["filler_terms_file"]), "filler terms file"
            )
        )
    preprocess = PreprocessConfig(
        stopwords=stopwords,
        domain_filler_terms=fillers,
        lowercase=bool(corpus_section.get("lowercase", False)),
        collapse_whitespace=bool(corpus_section.get("collapse_whitespace", True)),
        max_chunk_chars=int(corpus_section.get("max_chunk_chars", 4000)),
    )
    limit = corpus_section.get("limit")
    if limit is not None:
        limit = int(limit)

    endpoint_section = dict(raw.get("endpoint", {}))
    endpoint_seed = endpoint_section.pop("seed", DEFAULT_SEED)
    try:
        endpoint = EndpointConfig(
            seed=seed if seed is not None else endpoint_seed, **endpoint_section
        )
    except TypeError as exc:
        raise ConfigurationError(f"bad endpoint section: {exc}") from None

    prompts_section = raw.get("prompts", {})
    template_dir = (
        _require_dir(_resolve(base, prompts_section["template_dir"]), "prompt template directory")
        if prompts_section.get("template_dir")
        else default_prompt_dir()
    )
    examples_file = (
        _require_file(_resolve(base, prompts_section["examples_file"]), "example bank")
        if prompts_section.get("examples_file")
        else default_examples_path()
    )

    generic_terms = default_generic_terms()
    if raw.get("generic_terms_file"):
        generic_terms = read_term_file(
            _require_file(_resolve(base, raw["generic_terms_file"]), "generic terms file")
        )

    eval_section = raw.get("eval", {})
    gold_path = (
        _require_file(_resolve(base, eval_section["gold_path"]), "gold file")
        if eval_section.get("gold_path")
        else sample_gold_path()
    )
    try:
        assignment = AssignmentPolicy(eval_section.get("assignment", "greedy"))
    except ValueError:
        raise ConfigurationError(
            f"unknown assignment policy {eval_section.get('assignment')!r}; "
            "valid: greedy, optimal"
        ) from None
    semantic_threshold = float(eval_section.get("semantic_threshold", 0.75))
    if not 0.0 < semantic_threshold <= 1.0:
        raise ConfigurationError(
            f"semantic_threshold must be in (0, 1], got {semantic_threshold}"
        )
    eval_settings = EvalSettings(
        gold_path=gold_path,
        semantic_threshold=semantic_threshold,
        assignment=assignment,
        sample_size=int(eval_section.get("sample_size", 100)),
        seed=seed if seed is not None else int(eval_section.get("seed", DEFAULT_SEED)),
        redundancy_threshold=float(eval_section.get("redundancy_threshold", 0.9)),
        frequency_top_k=int(eval_section.get("frequency_top_k", 20)),
        heatmap_top_k=int(eval_section.get("heatmap_top_k", 15)),
    )

    output_dir = Path(out) if out is not None else _resolve(base, raw.get("output_dir", "out"))
    return PipelineConfig(
        source_dir=source_dir,
        output_dir=output_dir,
        preprocess=preprocess,
        endpoint=endpoint,
        template_dir=template_dir,
        examples_file=examples_file,
        eval=eval_settings,
        generic_terms=generic_terms,
        corpus_limit=limit,
    )
