#!/usr/bin/env python3
"""Walk the full pipeline on a tiny two-agreement corpus with the mock backend.

Steps: load XML → preprocess and chunk → extract triples with two prompt
variants → score against the bundled sample gold set → compare predicate
distributions → write the SVG charts. Everything is deterministic for a
fixed seed, so this demo prints the same numbers on every machine. Run with:

    python3 demos/pipeline_walkthrough.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from triplex.corpus import PreprocessConfig, chunk_document, load_corpus, preprocess_index
from triplex.defaults import sample_gold_path
from triplex.evaluation import (
    AssignmentPolicy,
    MatchConfig,
    MatchMode,
    coverage_score,
    distribution_divergence,
    match,
    metrics_from,
    predicate_distribution,
    redundancy_score,
)
from triplex.extraction import chunk_corpus, run_extraction
from triplex.gold import load_gold
from triplex.llmclient import EndpointConfig, make_client
from triplex.prompting import PromptVariant, default_example_bank
from triplex.report import frequency_chart, heatmap, heatmap_spec_from_distributions, metrics_table

DATA_DIR = Path(__file__).parent / "data"
VARIANTS = (PromptVariant.ZERO_SHOT, PromptVariant.NEGATIVE_EXAMPLES)


def main() -> None:
    print("== 1. Load the corpus ==")
    corpus = load_corpus(DATA_DIR)
    config = PreprocessConfig(max_chunk_chars=600)
    corpus = preprocess_index(corpus, config)
    for doc in corpus.documents:
        chunks = chunk_document(doc, config)
        print(
            f"  {doc.doc_id}: parties={doc.party_a}/{doc.party_b} "
            f"articles={len(doc.articles)} chunks={len(chunks)}"
        )

    print("\n== 2. Extract triples (mock backend, seed 7) ==")
    client = make_client(EndpointConfig(seed=7), backend="mock")
    bank = default_example_bank()
    chunks = chunk_corpus(corpus, config)
    runs = {}
    for variant in VARIANTS:
        run = run_extraction(chunks, variant, bank, client)
        runs[variant.value] = run
        stats = run.stats
        print(
            f"  {variant.value}: {len(run.triples)} triples "
            f"({stats['lines_parsed']} parsed / {stats['lines_rejected']} rejected, "
            f"{stats['duplicates_removed']} duplicates dropped, "
            f"{stats['refined_count']} fields refined)"
        )
    sample = runs[PromptVariant.NEGATIVE_EXAMPLES.value].triples[:3]
    for triple in sample:
        print(f"    e.g. ({triple.subject} | {triple.predicate} | {triple.object})")

    print("\n== 3. Score against the bundled sample gold set ==")
    gold = load_gold(sample_gold_path())
    print(f"  gold: {len(gold)} triples from {gold.annotator!r}")
    table_input = {}
    for name, run in runs.items():
        per_mode = {}
        for label, mode in (("exact", MatchMode.EXACT), ("semantic", MatchMode.SEMANTIC)):
            result = match(
                run.triples,
                gold.triples,
                MatchConfig(mode=mode, assignment=AssignmentPolicy.OPTIMAL),
                embedder=client if mode is MatchMode.SEMANTIC else None,
            )
            per_mode[label] = metrics_from(result, len(run.triples), len(gold))
        table_input[name] = per_mode
    _, aligned = metrics_table(table_input)
    print("\n" + "\n".join("  " + line for line in aligned.splitlines()))

    print("\n== 4. Compare predicate distributions ==")
    gold_dist = predicate_distribution(gold.triples)
    distributions = {}
    for name, run in runs.items():
        dist = predicate_distribution(run.triples)
        distributions[name] = dist
        print(
            f"  {name}: divergence from gold predicates "
            f"{distribution_divergence(dist, gold_dist):.3f}, "
            f"gold-entity coverage {coverage_score(run.triples, gold.triples):.3f}, "
            f"redundancy {redundancy_score(run.triples, client):.3f}"
        )

    print("\n== 5. Write the charts ==")
    out_dir = Path(tempfile.mkdtemp(prefix="triplex-demo-"))
    for name, dist in distributions.items():
        svg_path = out_dir / f"freq_{name}.svg"
        svg_path.write_text(
            frequency_chart(dist, top_k=20, title=f"Predicate frequency — {name}"),
            encoding="utf-8",
        )
        print(f"  wrote {svg_path}")
    spec = heatmap_spec_from_distributions(distributions, top_k=10)
    heat_path = out_dir / "heatmap.svg"
    heat_path.write_text(heatmap(spec, title="Predicates by variant"), encoding="utf-8")
    print(f"  wrote {heat_path}")

    print("\nDone. The mock backend fabricates plausible-shaped output from the")
    print("chunk text, so the scores above exercise the harness rather than any")
    print("real model: the richer prompt yields more kept triples, fewer")
    print("repeats, and refined generic terms. Point the same pipeline at a")
    print("live endpoint (see README) to measure an actual model.")


if __name__ == "__main__":
    main()
