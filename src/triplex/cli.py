"""Command-line interface: ingest, extract, eval, report, sample, run-all.

Exit codes: 0 on success, 1 when a command reports partial failures (a
skipped corpus file, failed chunks, a variant with no usable chunk), 2 when
any package error escapes a command: bad configuration or input.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict, astuple
from functools import partial

from .artifacts import from_json, read_json, write_json
from .config import PipelineConfig, load_config
from .corpus import load_corpus, preprocess_index, read_corpus_jsonl, write_corpus_jsonl
from .errors import ConfigurationError, ExtractionError, TriplexError
from .evaluation import (
    CodeTable,
    EvalReport,
    MatchConfig,
    MatchMode,
    ModeScores,
    VariantScores,
    coverage_score,
    distribution_divergence,
    match,
    metrics_from,
    predicate_distribution,
    redundancy_score,
    sample_for_annotation,
    write_annotation_csv,
)
from .extraction import ExtractionRun, chunk_corpus, read_run, run_extraction, write_run
from .gold import load_gold
from .llmclient import make_client
from .prompting import PromptTemplates, PromptVariant, load_example_bank
from .report import heatmap_spec_from_distributions, write_report_bundle

__all__ = ["main", "entrypoint"]

EXIT_OK = 0
EXIT_PARTIAL = 1
EXIT_FATAL = 2

_VARIANT_CHOICES = [v.value for v in PromptVariant] + ["all"]


def _variants(name: str) -> list[PromptVariant]:
    if name == "all":
        return list(PromptVariant)
    return [PromptVariant(name)]


def cmd_ingest(config: PipelineConfig) -> int:
    index = load_corpus(config.source_dir, limit=config.corpus_limit)
    index = preprocess_index(index, config.preprocess)
    write_corpus_jsonl(index, config.corpus_cache)
    print(
        f"wrote {config.corpus_cache} "
        f"({len(index.documents)} documents, {len(index.load_errors)} load errors)"
    )
    for filename, reason in index.load_errors:
        print(f"  skipped {filename}: {reason}", file=sys.stderr)
    return EXIT_PARTIAL if index.load_errors else EXIT_OK


def cmd_extract(config: PipelineConfig, variant_name: str, backend: str) -> int:
    # the corpus is dropped once chunked: extraction reads only the chunks
    chunks = chunk_corpus(read_corpus_jsonl(config.corpus_cache), config.preprocess)
    bank = load_example_bank(config.examples_file)
    templates = PromptTemplates.from_dir(config.template_dir)
    worst = EXIT_OK
    with make_client(config.endpoint, backend) as client:
        for variant in _variants(variant_name):
            path = config.runs_dir / f"{variant.value}.jsonl"
            try:
                run = run_extraction(
                    chunks,
                    variant,
                    bank,
                    client,
                    templates=templates,
                    generic_lexicon=config.generic_terms,
                )
            except ExtractionError as exc:
                print(f"{variant.value}: {exc}", file=sys.stderr)
                # an older run left in place would be scored as this variant's
                for stale in (path, path.with_suffix(".stats.json")):
                    if stale.exists():
                        stale.unlink()
                        print(f"{variant.value}: removed the older {stale}", file=sys.stderr)
                worst = max(worst, EXIT_PARTIAL)
                continue
            write_run(run, path)
            print(
                f"wrote {path} ({len(run.triples)} triples, "
                f"{run.stats['chunks_processed']} chunks, "
                f"{run.stats['chunks_failed']} failed)"
            )
            if run.stats["chunks_failed"]:
                worst = max(worst, EXIT_PARTIAL)
            del run  # the next variant extracts with this one's triples already freed
    return worst


def _load_runs(config: PipelineConfig) -> dict[str, ExtractionRun]:
    """Every run under ``runs/`` by variant: one file per variant, one endpoint, one chunk total."""
    runs, paths, endpoints, chunk_totals = {}, {}, {}, {}
    if config.runs_dir.is_dir():
        for path in sorted(config.runs_dir.glob("*.jsonl")):
            run = read_run(path)
            name = run.variant.value
            if name in runs:
                raise ConfigurationError(f"run files {paths[name]} and {path} both hold {name}")
            runs[name], paths[name] = run, path
            if run.endpoint_fingerprint:  # a run without a sidecar has none
                endpoints.setdefault(run.endpoint_fingerprint, name)
                total = run.stats["chunks_processed"] + run.stats["chunks_failed"]
                chunk_totals.setdefault(total, f"{name} ({total} chunks)")
    if not runs:
        raise ConfigurationError(f"no runs found under {config.runs_dir}; run extract first")
    for kinds, seen in (("endpoint settings", endpoints), ("corpora", chunk_totals)):
        if len(seen) > 1:
            first, second = list(seen.values())[:2]
            raise ConfigurationError(
                f"runs {first} and {second} come from different {kinds}; "
                "extract them again with one config"
            )
    return runs


def cmd_eval(config: PipelineConfig, backend: str) -> int:
    runs = _load_runs(config)
    gold = load_gold(config.eval.gold_path)
    gold_dist = predicate_distribution(gold.triples)
    # one code per field string of the gold set and every run, one embed call for them all
    table = CodeTable(gold.triples, (run.triples for run in runs.values()))
    header = {
        "gold_size": len(gold),
        "gold_annotator": gold.annotator,
        "recall_denominator": "full gold set size",
        "embedding_model": (
            "mock (hashed character trigrams)" if backend == "mock"
            else config.endpoint.embedding_model
        ),
        "semantic_threshold": config.eval.semantic_threshold,
        "assignment": config.eval.assignment.value,
        "seed": config.eval.seed,
    }
    variants = {}
    with make_client(config.endpoint, backend) as client:
        for name in sorted(runs):
            triples = table.view(runs[name].triples)  # frees the previous run's arrays
            modes = {}
            for mode in MatchMode:
                match_config = MatchConfig(
                    mode=mode,
                    semantic_threshold=config.eval.semantic_threshold,
                    assignment=config.eval.assignment,
                )
                result = match(
                    triples,
                    table.gold,
                    match_config,
                    embedder=client if mode is MatchMode.SEMANTIC else None,
                )
                metrics = metrics_from(result, len(triples), len(gold))
                modes[mode.value] = ModeScores(
                    *(round(score, 6) for score in astuple(metrics)),
                    pairs=len(result.pairs),
                    unmatched_predicted=len(result.unmatched_predicted),
                    unmatched_gold=len(result.unmatched_gold),
                    semantic_threshold=config.eval.semantic_threshold,
                    assignment=config.eval.assignment.value,
                )
            dist = predicate_distribution(triples)
            variants[name] = VariantScores(
                **modes,
                redundancy=(
                    round(
                        redundancy_score(triples, client, config.eval.redundancy_threshold), 6
                    )
                    if triples
                    else 0.0
                ),
                jsd_to_gold=(
                    round(distribution_divergence(dist, gold_dist), 6) if dist.total else 1.0
                ),
                coverage=round(coverage_score(triples, table.gold), 6),
                n_predicted=len(triples),
            )
    write_json(config.eval_report_path, asdict(EvalReport(header, variants)))
    print(f"wrote {config.eval_report_path} ({len(runs)} variants, 3 match modes)")
    return EXIT_OK


def cmd_report(config: PipelineConfig) -> int:
    runs = _load_runs(config)
    scores = read_json(config.eval_report_path, "eval report", partial(from_json, EvalReport))
    table_results = {
        name: {"exact": entry.exact, "semantic": entry.semantic}
        for name, entry in scores.variants.items()
    }
    if set(table_results) != set(runs):
        raise ConfigurationError(
            f"eval report {config.eval_report_path} scores {', '.join(sorted(table_results))}"
            f" but the runs hold {', '.join(sorted(runs))}; run eval again"
        )
    for name, run in runs.items():
        if len(run.triples) != scores.variants[name].n_predicted:
            raise ConfigurationError(
                f"eval report {config.eval_report_path} scores {scores.variants[name].n_predicted}"
                f" {name} triples but the run holds {len(run.triples)}; run eval again"
            )
    distributions = {
        name: predicate_distribution(run.triples) for name, run in runs.items()
    }
    spec = heatmap_spec_from_distributions(distributions, top_k=config.eval.heatmap_top_k)
    written = write_report_bundle(
        config.report_dir,
        table_results,
        distributions,
        spec,
        frequency_top_k=config.eval.frequency_top_k,
    )
    print(f"wrote {len(written)} report files under {config.report_dir}")
    return EXIT_OK


def cmd_sample(config: PipelineConfig, variant_name: str) -> int:
    if variant_name == "all":
        raise ConfigurationError("sample needs a single --variant, not 'all'")
    variant = PromptVariant(variant_name)
    run = read_run(config.runs_dir / f"{variant.value}.jsonl")
    records = sample_for_annotation(run, n=config.eval.sample_size, seed=config.eval.seed)
    out_path = config.output_dir / "annotation_sample.csv"
    write_annotation_csv(records, out_path)
    print(f"wrote {out_path} ({len(records)} rows)")
    return EXIT_OK


def cmd_run_all(config: PipelineConfig, backend: str) -> int:
    worst = cmd_ingest(config)
    worst = max(worst, cmd_extract(config, "all", backend))
    worst = max(worst, cmd_eval(config, backend))
    worst = max(worst, cmd_report(config))
    return worst


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="triplex",
        description="Extract subject-predicate-object triples from trade agreement "
        "XML corpora with prompted LLM calls, and evaluate them against a gold set.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("ingest", "load and preprocess the XML corpus into corpus.jsonl"),
        ("extract", "run prompt-based triple extraction over the cached corpus"),
        ("eval", "score runs against the gold set in all three match modes"),
        ("report", "render metric tables, frequency charts, and the heatmap"),
        ("sample", "draw a reproducible annotation sample from one run"),
        ("run-all", "ingest, extract all variants, eval, report"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="path to the pipeline JSON config")
        cmd.add_argument("--seed", type=int, default=None, help="override every configured seed")
        cmd.add_argument("--out", default=None, help="override the configured output directory")
        if name in ("extract", "sample"):
            cmd.add_argument(
                "--variant",
                default="all" if name == "extract" else None,
                choices=_VARIANT_CHOICES,
                required=name == "sample",
                help="prompt variant",
            )
        if name in ("extract", "eval", "run-all"):
            cmd.add_argument(
                "--backend",
                default="mock",
                choices=["live", "mock"],
                help="model backend (default: mock)",
            )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config, seed=args.seed, out=args.out)
        if args.command == "ingest":
            return cmd_ingest(config)
        if args.command == "extract":
            return cmd_extract(config, args.variant, args.backend)
        if args.command == "eval":
            return cmd_eval(config, args.backend)
        if args.command == "report":
            return cmd_report(config)
        if args.command == "sample":
            return cmd_sample(config, args.variant)
        return cmd_run_all(config, args.backend)  # argparse has refused any other command
    except TriplexError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FATAL


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
