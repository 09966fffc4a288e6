"""Acceptance checks: one test and one printed PASS/FAIL line per shipped guarantee.

Run ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.

Each test exercises a whole-system property end to end: reference-table
consistency, assignment optimality against a brute-force oracle, the
exact-vs-semantic ordering, byte-level determinism, cap/dedupe accounting,
parser totality, prompt-ladder accretion, metric bounds, and refinement
safety on mock runs.
"""

from __future__ import annotations

import json
import random
import time

import pytest

from oracles import best_assignment_oracle, eligible_edges_oracle, random_instance
from triplex.cli import main
from triplex.corpus import PreprocessConfig, load_corpus
from triplex.evaluation import (
    AssignmentPolicy,
    MatchConfig,
    MatchMode,
    PredicateDistribution,
    coverage_score,
    distribution_divergence,
    f1_score,
    match,
    metrics_from,
    redundancy_score,
)
from triplex.extraction import (
    Triple,
    chunk_corpus,
    dedupe_and_cap,
    flag_generic,
    normalize_field,
    parse_triples,
    refine_generic,
    run_extraction,
)
from triplex.llmclient import EndpointConfig, make_client
from triplex.prompting import (
    PromptTemplates,
    PromptVariant,
    build_prompt,
    default_example_bank,
)

SEED = 42


def _criterion(name: str, passed: bool, detail: str) -> None:
    """Print one verdict line, then enforce it."""
    print(f"{'PASS' if passed else 'FAIL'}: {name} — {detail}")
    assert passed, f"{name}: {detail}"


@pytest.fixture(scope="module")
def module_client():
    return make_client(EndpointConfig(seed=SEED), backend="mock")


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory, corpus_dir):
    """Two identical mock pipeline runs (same config, same seed, two out dirs)."""
    base = tmp_path_factory.mktemp("acceptance")
    config_path = base / "config.json"
    config_path.write_text(
        json.dumps(
            {
                "corpus": {"source_dir": str(corpus_dir), "max_chunk_chars": 600},
                "output_dir": str(base / "out_a"),
                "endpoint": {"seed": SEED},
                "eval": {"seed": SEED},
            }
        ),
        encoding="utf-8",
    )
    started = time.perf_counter()
    rc_a = main(["run-all", "--config", str(config_path)])
    rc_b = main(["run-all", "--config", str(config_path), "--out", str(base / "out_b")])
    elapsed = time.perf_counter() - started
    assert rc_a == 0 and rc_b == 0
    return base / "out_a", base / "out_b", elapsed


# ---------------------------------------------------------------------------
# 1. reference results table F1 consistency
# ---------------------------------------------------------------------------

REFERENCE_TABLE = [
    # (precision, recall, reported F1): exact-match block then semantic block,
    # one row per prompt variant from bare zero-shot to negative examples.
    (0.04, 0.22, 0.07),
    (0.11, 0.38, 0.17),
    (0.25, 0.57, 0.35),
    (0.39, 0.66, 0.49),
    (0.06, 0.28, 0.10),
    (0.14, 0.44, 0.21),
    (0.30, 0.65, 0.41),
    (0.46, 0.78, 0.57),
]


def test_f1_table_consistency():
    started = time.perf_counter()
    deviations = [
        (p, r, reported, round(abs(f1_score(p, r) - reported), 4))
        for p, r, reported in REFERENCE_TABLE
        if abs(f1_score(p, r) - reported) > 0.01 + 1e-9
    ]
    elapsed = time.perf_counter() - started
    _criterion(
        "reference results table F1 consistency",
        not deviations and elapsed < 1.0,
        f"all {len(REFERENCE_TABLE)} (P, R) pairs reproduce the reported F1 "
        f"within ±0.01 in {elapsed:.3f}s"
        + (f"; deviations: {deviations}" if deviations else ""),
    )


# ---------------------------------------------------------------------------
# 2. matching oracle equivalence
# ---------------------------------------------------------------------------


def test_matching_oracle_equivalence(module_client):
    """Optimal assignment must equal the brute-force oracle; greedy must equal
    it in pair count under exact and partial matching.
    """
    rng = random.Random(1234)
    started = time.perf_counter()
    optimal_mismatches = 0
    greedy_exact_mismatches = 0
    greedy_partial_mismatches = 0
    first_partial_miss = ""
    for index in range(500):
        predicted, gold = random_instance(rng)
        for mode in (MatchMode.EXACT, MatchMode.PARTIAL, MatchMode.SEMANTIC):
            embedder = module_client if mode is MatchMode.SEMANTIC else None
            edges = eligible_edges_oracle(
                predicted, gold, mode, threshold=0.75, embedder=embedder
            )
            oracle_count, oracle_total = best_assignment_oracle(edges, len(predicted))
            optimal = match(
                predicted,
                gold,
                MatchConfig(mode=mode, assignment=AssignmentPolicy.OPTIMAL),
                embedder=embedder,
            )
            if (
                len(optimal.pairs) != oracle_count
                or abs(optimal.total_score - oracle_total) > 1e-9
            ):
                optimal_mismatches += 1
            if mode is MatchMode.SEMANTIC:
                continue
            greedy = match(
                predicted,
                gold,
                MatchConfig(mode=mode, assignment=AssignmentPolicy.GREEDY),
            )
            if len(greedy.pairs) != oracle_count:
                if mode is MatchMode.PARTIAL:
                    greedy_partial_mismatches += 1
                    if not first_partial_miss:
                        first_partial_miss = (
                            f"; first partial shortfall at instance {index}: "
                            f"greedy {len(greedy.pairs)} pairs vs oracle {oracle_count}"
                        )
                else:
                    greedy_exact_mismatches += 1
    elapsed = time.perf_counter() - started
    passed = (
        optimal_mismatches == 0
        and greedy_exact_mismatches == 0
        and greedy_partial_mismatches == 0
        and elapsed < 30.0
    )
    _criterion(
        "matching oracle equivalence",
        passed,
        f"500 instances x 3 modes in {elapsed:.1f}s: optimal matched the "
        f"exhaustive oracle on {1500 - optimal_mismatches}/1500 mode-instances; "
        f"greedy matched oracle pair count on {500 - greedy_exact_mismatches}/500 "
        f"under exact and {500 - greedy_partial_mismatches}/500 under partial"
        + first_partial_miss,
    )


# ---------------------------------------------------------------------------
# 3. semantic loosens exact
# ---------------------------------------------------------------------------


def test_semantic_loosens_exact(pipeline):
    out_a, _, _ = pipeline
    started = time.perf_counter()
    report = json.loads((out_a / "eval_report.json").read_text(encoding="utf-8"))
    violations = []
    for variant, entry in sorted(report["variants"].items()):
        for key in ("precision", "recall", "f1"):
            if entry["semantic"][key] < entry["exact"][key]:
                violations.append(
                    f"{variant}.{key}: semantic {entry['semantic'][key]} "
                    f"< exact {entry['exact'][key]}"
                )
    elapsed = time.perf_counter() - started
    _criterion(
        "semantic loosens exact",
        not violations and elapsed < 10.0,
        f"semantic (τ=0.75) P/R/F1 ≥ exact on all {len(report['variants'])} "
        f"mock runs in {elapsed:.3f}s"
        + (f"; violations: {violations}" if violations else ""),
    )


# ---------------------------------------------------------------------------
# 4. end-to-end determinism
# ---------------------------------------------------------------------------


def test_end_to_end_determinism(pipeline):
    out_a, out_b, elapsed = pipeline
    relative = sorted(
        path.relative_to(out_a)
        for path in out_a.rglob("*")
        if path.is_file()
        and (path.parent.name == "runs" or path.suffix == ".svg" or path.name == "eval_report.json")
    )
    differing = [
        str(rel)
        for rel in relative
        if (out_a / rel).read_bytes() != (out_b / rel).read_bytes()
    ]
    _criterion(
        "end-to-end determinism",
        len(relative) >= 10 and not differing and elapsed < 60.0,
        f"two seed-{SEED} mock pipelines in {elapsed:.1f}s: "
        f"{len(relative)} tracked artifacts (runs, eval report, SVGs) byte-identical"
        + (f"; differing: {differing}" if differing else ""),
    )


# ---------------------------------------------------------------------------
# 5. cap and dedupe
# ---------------------------------------------------------------------------


def _make_triple(subject: str, predicate: str, obj: str) -> Triple:
    return Triple(
        subject=subject,
        predicate=predicate,
        object=obj,
        doc_id="docA",
        article_id="article:001",
        chunk_index=0,
        variant=PromptVariant.ZERO_SHOT,
    )


def test_cap_and_dedupe():
    distinct = [_make_triple(f"s{i}", f"p{i % 17}", f"o{i}") for i in range(1500)]
    kept, duplicates_removed, capped = dedupe_and_cap(list(distinct))
    cap_ok = (
        duplicates_removed == 0
        and capped == 500
        and [(t.subject, t.predicate, t.object) for t in kept]
        == [(t.subject, t.predicate, t.object) for t in distinct[:1000]]
    )

    rng = random.Random(9)
    base = [_make_triple(f"s{i}", f"p{i % 11}", f"o{i}") for i in range(300)]
    injected = list(base)
    n_injected = 57
    for _ in range(n_injected):
        copy = base[rng.randrange(len(base))]
        first_occurrence = injected.index(copy)
        injected.insert(rng.randrange(first_occurrence + 1, len(injected) + 1), copy)
    kept2, removed2, capped2 = dedupe_and_cap(injected)
    dedupe_ok = (
        removed2 == n_injected
        and capped2 == 0
        and [(t.subject, t.predicate, t.object) for t in kept2]
        == [(t.subject, t.predicate, t.object) for t in base]
    )
    _criterion(
        "cap and dedupe",
        cap_ok and dedupe_ok,
        f"1500 distinct → first 1000 kept in order ({capped} capped); "
        f"{n_injected} injected duplicates → exactly {removed2} removed, "
        "original order preserved",
    )


# ---------------------------------------------------------------------------
# 6. parser robustness
# ---------------------------------------------------------------------------

EXPECTED_CANDIDATE_LINES = {2, 4, 5, 7, 11, 13, 17}


def test_parser_robustness(parse_sample_text):
    rng = random.Random(77)
    started = time.perf_counter()
    fuzz_failures = 0
    for _ in range(10_000):
        text = rng.randbytes(rng.randrange(0, 200)).decode("latin-1")
        try:
            candidates, rejections = parse_triples(text)
        except Exception:  # pragma: no cover - the whole point is it never fires
            fuzz_failures += 1
            continue
        if len(candidates) + len(rejections) != len(text.splitlines()):
            fuzz_failures += 1
    elapsed = time.perf_counter() - started

    candidates, rejections = parse_triples(parse_sample_text)
    lines_total = len(parse_sample_text.splitlines())
    split_ok = (
        {c.line_number for c in candidates} == EXPECTED_CANDIDATE_LINES
        and len(candidates) + len(rejections) == lines_total == 20
    )

    quoted = [c for c in candidates if c.line_number == 5]
    generic_ok = False
    if quoted:
        subject, predicate, obj = (
            normalize_field(f)
            for f in (quoted[0].subject, quoted[0].predicate, quoted[0].object)
        )
        generic_ok = (
            (subject, predicate, obj) == ("parties", "signed", "contract")
            and flag_generic(subject)
            and not flag_generic(obj)
        )
    _criterion(
        "parser robustness",
        fuzz_failures == 0 and split_ok and generic_ok,
        f"10,000 random byte strings parsed with zero crashes in {elapsed:.1f}s; "
        f"20-line fixture split into {len(candidates)} candidates / "
        f"{len(rejections)} rejections exactly as labeled; "
        "('parties', 'signed', 'contract') parses with a generic subject flag",
    )


# ---------------------------------------------------------------------------
# 7. prompt accretion
# ---------------------------------------------------------------------------


def test_prompt_accretion():
    bank = default_example_bank()
    templates = PromptTemplates.default()
    ladder = list(PromptVariant)
    subset_ok = all(
        set(templates.constraint_clauses(low)) < set(templates.constraint_clauses(high))
        for low, high in zip(ladder, ladder[1:])
    )

    chunk = "Canada and Chile signed the agreement on customs duties."
    one_shot = build_prompt(PromptVariant.ONE_SHOT, bank, chunk).text
    embedded_positives = [
        ex for ex in bank.positive_examples if ex.snippet in one_shot
    ]
    one_shot_ok = (
        len(embedded_positives) == 1
        and embedded_positives[0] is bank.positive_examples[0]
    )

    negative = build_prompt(PromptVariant.NEGATIVE_EXAMPLES, bank, chunk).text
    negatives_embedded = sum(
        f"({s} | {p} | {o})" in negative for s, p, o in (ex.triple for ex in bank.negative_examples)
    )
    negated_embedded = sum(text in negative for text in bank.negated_instructions)
    negative_ok = negatives_embedded >= 1 and negated_embedded >= 1

    _criterion(
        "prompt accretion",
        subset_ok and one_shot_ok and negative_ok,
        "constraint clauses grow strictly along the four-variant ladder; "
        "one-shot embeds exactly 1 positive example; negative variant embeds "
        f"{negatives_embedded} negative examples and {negated_embedded} negated instructions",
    )


# ---------------------------------------------------------------------------
# 8. metric properties
# ---------------------------------------------------------------------------


def test_metric_properties(module_client):
    rng = random.Random(4242)
    started = time.perf_counter()
    violations: list[str] = []
    thresholds = (0.95, 0.85, 0.75, 0.65, 0.5)
    vocabulary = ["alpha", "beta", "gamma", "delta", "epsilon"]
    trials = 1000
    for trial in range(trials):
        predicted, gold = random_instance(rng)
        mode = rng.choice((MatchMode.EXACT, MatchMode.PARTIAL, MatchMode.SEMANTIC))
        embedder = module_client if mode is MatchMode.SEMANTIC else None
        result = match(predicted, gold, MatchConfig(mode=mode), embedder=embedder)
        metrics = metrics_from(result, len(predicted), len(gold))
        if not (0.0 <= metrics.precision <= 1.0 and 0.0 <= metrics.recall <= 1.0):
            violations.append(f"trial {trial}: precision/recall out of bounds")
        if abs(metrics.f1 - f1_score(metrics.precision, metrics.recall)) > 1e-12:
            violations.append(f"trial {trial}: f1 is not the harmonic mean")
        if len(result.pairs) > min(len(predicted), len(gold)):
            violations.append(f"trial {trial}: more pairs than min(|P|, |G|)")

        counts_p = {w: rng.randrange(0, 5) for w in vocabulary}
        counts_q = {w: rng.randrange(0, 5) for w in vocabulary}
        counts_p[rng.choice(vocabulary)] += 1  # keep both distributions nonempty
        counts_q[rng.choice(vocabulary)] += 1
        dist_p = PredicateDistribution({k: v for k, v in counts_p.items() if v}, sum(counts_p.values()))
        dist_q = PredicateDistribution({k: v for k, v in counts_q.items() if v}, sum(counts_q.values()))
        forward = distribution_divergence(dist_p, dist_q)
        if not 0.0 <= forward <= 1.0:
            violations.append(f"trial {trial}: JSD out of [0, 1]")
        if abs(forward - distribution_divergence(dist_q, dist_p)) > 1e-12:
            violations.append(f"trial {trial}: JSD asymmetric")
        if distribution_divergence(dist_p, dist_p) != 0.0:
            violations.append(f"trial {trial}: JSD(d, d) != 0")

        if gold:
            coverage = coverage_score(predicted, gold)
            if not 0.0 <= coverage <= 1.0:
                violations.append(f"trial {trial}: coverage out of [0, 1]")
        if predicted:
            redundancy = redundancy_score(predicted, module_client)
            if not 0.0 <= redundancy <= 1.0:
                violations.append(f"trial {trial}: redundancy out of [0, 1]")

        if trial % 20 == 0:
            pair_counts = [
                len(
                    match(
                        predicted,
                        gold,
                        MatchConfig(
                            mode=MatchMode.SEMANTIC,
                            semantic_threshold=threshold,
                            assignment=AssignmentPolicy.OPTIMAL,
                        ),
                        embedder=module_client,
                    ).pairs
                )
                for threshold in thresholds
            ]
            if any(a > b for a, b in zip(pair_counts, pair_counts[1:])):
                violations.append(
                    f"trial {trial}: semantic pairs not monotone in τ: {pair_counts}"
                )
    elapsed = time.perf_counter() - started
    _criterion(
        "metric properties",
        not violations,
        f"{trials} randomized trials in {elapsed:.1f}s: metric bounds, harmonic F1, "
        "JSD symmetry/identity/bounds, τ-monotone semantic pair counts, and "
        "coverage/redundancy bounds all hold"
        + (f"; first violations: {violations[:3]}" if violations else ""),
    )


# ---------------------------------------------------------------------------
# 9. refinement safety
# ---------------------------------------------------------------------------


def test_refinement_safety(corpus_dir, bank, module_client):
    corpus = load_corpus(corpus_dir)
    config = PreprocessConfig(max_chunk_chars=600)
    chunks = chunk_corpus(corpus, config)
    chunk_texts = {(doc_id, article_id, index): text for doc_id, article_id, index, text in chunks}
    checked = 0
    refined_total = 0
    problems: list[str] = []
    for variant in PromptVariant:
        run = run_extraction(chunks, variant, bank, module_client)
        by_chunk: dict[tuple[str, str, int], list[Triple]] = {}
        for triple in run.triples:
            key = (triple.doc_id, triple.article_id, triple.chunk_index)
            by_chunk.setdefault(key, []).append(triple)
        for key, before in sorted(by_chunk.items()):
            after, refined, _failures = refine_generic(
                list(before), chunk_texts[key], module_client
            )
            refined_total += refined
            checked += len(before)
            if len(after) != len(before):
                problems.append(f"{variant.value}/{key}: count changed")
                continue
            for old, new in zip(before, after):
                flagged = old.generic_subject or old.generic_object
                if not flagged and new != old:
                    problems.append(f"{variant.value}/{key}: unflagged triple changed")
                if new.subject != old.subject and flag_generic(new.subject):
                    problems.append(f"{variant.value}/{key}: generic subject emitted")
                if new.object != old.object and flag_generic(new.object):
                    problems.append(f"{variant.value}/{key}: generic object emitted")
    _criterion(
        "refinement safety",
        checked > 0 and refined_total > 0 and not problems,
        f"refined mock runs for all 4 variants ({checked} triples, "
        f"{refined_total} fields rewritten): counts preserved, unflagged triples "
        "untouched, no generic replacement emitted"
        + (f"; problems: {problems[:3]}" if problems else ""),
    )
