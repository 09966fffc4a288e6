"""Matching modes, assignment policies, metrics, divergence, redundancy, sampling."""

from __future__ import annotations

import csv
import io
import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

from triplex.errors import ConfigurationError
from triplex.evaluation import (
    ANNOTATION_METRICS,
    AssignmentPolicy,
    CodeTable,
    MatchConfig,
    MatchMode,
    MatchResult,
    PredicateDistribution,
    _eligible_edges,
    _maximum_matching,
    coverage_score,
    distribution_divergence,
    f1_score,
    match,
    metrics_from,
    predicate_distribution,
    redundancy_score,
    sample_for_annotation,
    write_annotation_csv,
)
from triplex.extraction import ExtractionRun, Triple
from triplex.gold import GoldTriple
from triplex.llmclient import EmbeddingVector, EndpointConfig, make_client, mock_embedding
from triplex.prompting import PromptVariant

from oracles import best_assignment_oracle, eligible_edges_oracle, random_instance


def T(s, p, o):
    return Triple(
        subject=s,
        predicate=p,
        object=o,
        doc_id="doc",
        article_id="article:001",
        chunk_index=0,
        variant=PromptVariant.ZERO_SHOT,
    )


G = GoldTriple


# ---------------------------------------------------------------------------
# exact and partial matching
# ---------------------------------------------------------------------------


def test_exact_match_requires_all_three_fields():
    predicted = [T("japan", "signed", "x"), T("japan", "signed", "y")]
    gold = [G("japan", "signed", "x"), G("japan", "ratified", "y")]
    result = match(predicted, gold, MatchConfig(mode=MatchMode.EXACT))
    assert result.pairs == ((0, 0, 1.0),)
    assert result.unmatched_predicted == (1,)
    assert result.unmatched_gold == (1,)


def test_partial_match_requires_two_of_three_fields():
    predicted = [T("japan", "signed", "x"), T("chile", "grants", "z")]
    gold = [G("japan", "ratified", "x"), G("norway", "grants", "z")]
    result = match(predicted, gold, MatchConfig(mode=MatchMode.PARTIAL))
    assert result.pairs == ((0, 0, 1.0), (1, 1, 1.0))


def test_one_field_agreement_is_not_partial():
    result = match(
        [T("japan", "signed", "x")],
        [G("japan", "ratified", "y")],
        MatchConfig(mode=MatchMode.PARTIAL),
    )
    assert result.pairs == ()


def test_matching_is_one_to_one_even_with_duplicate_predictions():
    predicted = [T("japan", "signed", "x")] * 3
    gold = [G("japan", "signed", "x")]
    result = match(predicted, gold, MatchConfig(mode=MatchMode.EXACT))
    assert len(result.pairs) == 1
    assert len(result.unmatched_predicted) == 2


def test_greedy_can_trail_optimal_under_partial():
    """A uniform-score tie chain, the case greedy pairing used to lose.

    P1 overlaps both gold rows and P2 overlaps only G1. Walking the tied
    edges in index order spent G1 on P1 and stranded P2, so greedy found 1
    pair where 2 exist. Both policies must find the 2-pair solution.
    """
    predicted = [T("a", "b", "c"), T("a", "b", "z")]
    gold = [G("a", "b", "x"), G("a", "y", "c")]
    config_greedy = MatchConfig(mode=MatchMode.PARTIAL, assignment=AssignmentPolicy.GREEDY)
    config_optimal = MatchConfig(mode=MatchMode.PARTIAL, assignment=AssignmentPolicy.OPTIMAL)
    greedy = match(predicted, gold, config_greedy)
    optimal = match(predicted, gold, config_optimal)
    assert greedy.pairs == ((0, 1, 1.0), (1, 0, 1.0))
    assert len(optimal.pairs) == 2
    assert optimal.pairs == ((0, 1, 1.0), (1, 0, 1.0))


def test_greedy_prefers_higher_scores_then_lower_indexes(mock_client):
    # two predictions compete for one gold row; the semantically closer wins
    predicted = [T("japan", "ratifies", "x"), T("japan", "signed", "x")]
    gold = [G("japan", "signed", "x")]
    config = MatchConfig(mode=MatchMode.SEMANTIC, assignment=AssignmentPolicy.GREEDY)
    result = match(predicted, gold, config, embedder=mock_client)
    assert result.pairs[0][:2] == (1, 0)  # the exact duplicate outranks the variant


# ---------------------------------------------------------------------------
# semantic matching
# ---------------------------------------------------------------------------


def test_semantic_equal_strings_short_circuit_to_one(mock_client):
    result = match(
        [T("japan", "signed", "x")],
        [G("japan", "signed", "x")],
        MatchConfig(mode=MatchMode.SEMANTIC),
        embedder=mock_client,
    )
    assert result.pairs == ((0, 0, 1.0),)


def test_semantic_score_is_mean_of_field_cosines(mock_client):
    predicted = [T("thailand", "ratifies", "protocol")]
    gold = [G("thailand", "ratified", "the protocol")]
    result = match(
        predicted, gold, MatchConfig(mode=MatchMode.SEMANTIC), embedder=mock_client
    )
    ratifies, ratified, protocol, the_protocol = mock_client.embed(
        ["ratifies", "ratified", "protocol", "the protocol"]
    )
    expected = (1.0 + ratifies.cosine(ratified) + protocol.cosine(the_protocol)) / 3.0
    assert expected >= 0.75
    assert result.pairs == ((0, 0, pytest.approx(expected, abs=1e-12)),)


def test_semantic_threshold_excludes_weak_pairs(mock_client):
    predicted = [T("japan", "signed", "dispute settlement")]
    gold = [G("chile", "grants", "import tariff")]
    result = match(
        predicted, gold, MatchConfig(mode=MatchMode.SEMANTIC), embedder=mock_client
    )
    assert result.pairs == ()


def test_semantic_requires_embedder():
    with pytest.raises(ConfigurationError):
        match([T("a", "b", "c")], [G("a", "b", "c")], MatchConfig(mode=MatchMode.SEMANTIC))


def test_semantic_pair_count_is_monotone_in_threshold(mock_client):
    rng = random.Random(1234)
    for _ in range(20):
        predicted, gold = random_instance(rng)
        counts = []
        for threshold in (0.95, 0.85, 0.75, 0.65):
            config = MatchConfig(
                mode=MatchMode.SEMANTIC,
                semantic_threshold=threshold,
                assignment=AssignmentPolicy.OPTIMAL,
            )
            counts.append(len(match(predicted, gold, config, embedder=mock_client).pairs))
        assert counts == sorted(counts), counts


def test_exact_edges_are_a_subset_of_semantic_edges(mock_client):
    rng = random.Random(99)
    for _ in range(20):
        predicted, gold = random_instance(rng)
        exact = eligible_edges_oracle(predicted, gold, MatchMode.EXACT)
        semantic = eligible_edges_oracle(
            predicted, gold, MatchMode.SEMANTIC, embedder=mock_client
        )
        semantic_keys = {(pi, gi) for pi, gi, _ in semantic}
        assert {(pi, gi) for pi, gi, _ in exact} <= semantic_keys


def _edge_instances():
    rng = random.Random(31)
    instances = [random_instance(rng) for _ in range(200)]
    # one large instance over the same small vocabulary: repeated strings,
    # tied scores, and scores close to the threshold all occur
    while True:
        predicted, gold = random_instance(rng, max_gold=60, max_predicted=300)
        if len(predicted) >= 250 and len(gold) >= 50:
            return instances + [(predicted, gold)]


@pytest.mark.parametrize(
    "mode, threshold",
    [
        (MatchMode.EXACT, 0.75),
        (MatchMode.PARTIAL, 0.75),
        (MatchMode.SEMANTIC, 0.5),
        (MatchMode.SEMANTIC, 0.75),
        (MatchMode.SEMANTIC, 0.9),
        (MatchMode.SEMANTIC, 1.0),
    ],
)
def test_eligible_edges_equal_the_oracle(mode, threshold, mock_client):
    config = MatchConfig(mode=mode, semantic_threshold=threshold)
    for predicted, gold in _edge_instances():
        edges = _eligible_edges(predicted, gold, config, mock_client)
        expected = eligible_edges_oracle(
            predicted, gold, mode, threshold=threshold, embedder=mock_client
        )
        assert [(pi, gi) for pi, gi, _ in edges] == [(pi, gi) for pi, gi, _ in expected]
        for (_, _, score), (_, _, want) in zip(edges, expected):
            assert abs(score - want) <= 1e-12


@pytest.mark.parametrize("seed", range(4))
def test_one_table_scores_every_list_as_the_oracle_does(seed, mock_client):
    # several predicted lists over the vocabulary of _edge_instances, so strings repeat
    # across lists, coded and embedded once against one gold set
    rng = random.Random(seed)
    instances = [random_instance(rng, max_gold=40, max_predicted=120) for _ in range(5)]
    gold = instances[0][1]
    lists = [predicted for predicted, _ in instances]
    table = CodeTable(gold, lists)
    for predicted in lists:
        view = table.view(predicted)
        for mode, threshold in (
            (MatchMode.EXACT, 0.75),
            (MatchMode.PARTIAL, 0.75),
            (MatchMode.SEMANTIC, 0.5),
            (MatchMode.SEMANTIC, 0.9),
        ):
            config = MatchConfig(mode=mode, semantic_threshold=threshold)
            edges = _eligible_edges(view, table.gold, config, mock_client)
            expected = eligible_edges_oracle(
                predicted, gold, mode, threshold=threshold, embedder=mock_client
            )
            assert [(pi, gi) for pi, gi, _ in edges] == [(pi, gi) for pi, gi, _ in expected]
            for (_, _, score), (_, _, want) in zip(edges, expected):
                assert abs(score - want) <= 1e-12
            # plain lists get a table of their own, and the same matching
            assert match(view, table.gold, config, mock_client) == match(
                predicted, gold, config, mock_client
            )


# ---------------------------------------------------------------------------
# assignment policies against the exhaustive oracle
# ---------------------------------------------------------------------------


def test_optimal_assignment_matches_exhaustive_oracle(mock_client):
    rng = random.Random(2024)
    for _ in range(60):
        predicted, gold = random_instance(rng)
        for mode in MatchMode:
            config = MatchConfig(mode=mode, assignment=AssignmentPolicy.OPTIMAL)
            embedder = mock_client if mode is MatchMode.SEMANTIC else None
            result = match(predicted, gold, config, embedder=embedder)
            edges = eligible_edges_oracle(
                predicted, gold, mode, embedder=mock_client
            )
            best_count, best_total = best_assignment_oracle(edges, len(predicted))
            assert len(result.pairs) == best_count, (mode, predicted, gold)
            assert result.total_score == pytest.approx(best_total, abs=1e-9)


def test_greedy_equals_oracle_under_exact(mock_client):
    rng = random.Random(7)
    for _ in range(60):
        predicted, gold = random_instance(rng)
        result = match(
            predicted, gold, MatchConfig(mode=MatchMode.EXACT, assignment=AssignmentPolicy.GREEDY)
        )
        edges = eligible_edges_oracle(predicted, gold, MatchMode.EXACT)
        best_count, _ = best_assignment_oracle(edges, len(predicted))
        assert len(result.pairs) == best_count


@st.composite
def unit_weight_graphs(draw):
    """A bipartite graph as ``(edges, n_predicted, n_gold)``, edges in any order."""
    n_predicted = draw(st.integers(0, 12))
    n_gold = draw(st.integers(0, 12))
    cells = [(pi, gi) for pi in range(n_predicted) for gi in range(n_gold)]
    chosen = draw(st.lists(st.sampled_from(cells), unique=True) if cells else st.just([]))
    return [(pi, gi, 1.0) for pi, gi in chosen], n_predicted, n_gold


@settings(max_examples=400, deadline=None)
@given(unit_weight_graphs())
def test_maximum_matching_has_the_cardinality_of_linear_sum_assignment(graph):
    edges, n_predicted, n_gold = graph
    pairs = _maximum_matching(edges, n_predicted)
    eligible = np.zeros((n_predicted, n_gold))
    for pi, gi, _ in edges:
        eligible[pi, gi] = 1.0
    rows, cols = linear_sum_assignment(eligible, maximize=True)
    assert len(pairs) == int(eligible[rows, cols].sum())
    assert {(pi, gi) for pi, gi, _ in pairs} <= {(pi, gi) for pi, gi, _ in edges}
    assert len({pi for pi, _, _ in pairs}) == len({gi for _, gi, _ in pairs}) == len(pairs)
    assert all(score == 1.0 for _, _, score in pairs)


def test_maximum_matching_follows_a_long_augmenting_chain():
    # greedy pairs predicted i with gold i, leaving predicted n only gold 0:
    # the one augmenting path runs through every vertex, n levels deep
    n = 10_000
    edges = [(pi, gi, 1.0) for pi in range(n) for gi in (pi, pi + 1)] + [(n, 0, 1.0)]
    assert len(edges) >= 20_000
    pairs = _maximum_matching(edges, n + 1)
    assert pairs == [(pi, pi + 1, 1.0) for pi in range(n)] + [(n, 0, 1.0)]


def test_match_result_rejects_double_booking():
    with pytest.raises(ValueError):
        MatchResult(pairs=((0, 0, 1.0), (0, 1, 1.0)), unmatched_predicted=(), unmatched_gold=())
    with pytest.raises(ValueError):
        MatchResult(pairs=((0, 0, 1.0), (1, 0, 1.0)), unmatched_predicted=(), unmatched_gold=())


def test_match_config_validation():
    with pytest.raises(ConfigurationError):
        MatchConfig(semantic_threshold=0.0)
    with pytest.raises(ConfigurationError):
        MatchConfig(semantic_threshold=1.5)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def test_f1_is_harmonic_mean():
    assert f1_score(0.39, 0.66) == pytest.approx(2 * 0.39 * 0.66 / (0.39 + 0.66))
    assert round(f1_score(0.39, 0.66), 2) == 0.49
    assert f1_score(0.0, 0.0) == 0.0
    assert f1_score(1.0, 1.0) == 1.0
    assert f1_score(0.0, 0.9) == 0.0


def test_metrics_from_counts():
    result = MatchResult(
        pairs=((0, 0, 1.0), (1, 2, 1.0)), unmatched_predicted=(2,), unmatched_gold=(1,)
    )
    metrics = metrics_from(result, n_predicted=3, n_gold=4)
    assert metrics.precision == pytest.approx(2 / 3)
    assert metrics.recall == pytest.approx(2 / 4)
    assert metrics.f1 == pytest.approx(f1_score(2 / 3, 2 / 4))


def test_metrics_from_zero_denominators():
    empty = MatchResult(pairs=(), unmatched_predicted=(), unmatched_gold=())
    metrics = metrics_from(empty, n_predicted=0, n_gold=0)
    assert (metrics.precision, metrics.recall, metrics.f1) == (0.0, 0.0, 0.0)


def test_metrics_from_rejects_impossible_counts():
    result = MatchResult(pairs=((0, 0, 1.0),), unmatched_predicted=(), unmatched_gold=())
    with pytest.raises(ValueError):
        metrics_from(result, n_predicted=0, n_gold=1)


# ---------------------------------------------------------------------------
# predicate distributions and divergence
# ---------------------------------------------------------------------------


def test_predicate_distribution_counts():
    dist = predicate_distribution([T("a", "signed", "b"), T("c", "signed", "d"), T("e", "grants", "f")])
    assert dist.counts == {"signed": 2, "grants": 1}
    assert dist.total == 3
    with pytest.raises(ValueError, match="^distribution total does not match counts$"):
        PredicateDistribution(counts={"signed": 2, "grants": 1}, total=4)


def test_divergence_hand_computed_values():
    two = predicate_distribution([T("a", "x", "b"), T("c", "y", "d")])
    one = predicate_distribution([T("a", "x", "b")])
    # P=(1/2,1/2), Q=(1,0), M=(3/4,1/4):
    # 0.5*[0.5*log2(2/3) + 0.5*log2(2)] + 0.5*[log2(4/3)] = 0.3112781...
    assert distribution_divergence(two, one) == pytest.approx(0.3112781, abs=1e-6)

    skew = predicate_distribution([T("a", "x", "b"), T("c", "x", "d"), T("e", "y", "f")])
    assert distribution_divergence(skew, one) == pytest.approx(0.1908745, abs=1e-6)


def test_divergence_extremes_and_symmetry():
    p = predicate_distribution([T("a", "x", "b")])
    q = predicate_distribution([T("a", "y", "b"), T("c", "z", "d")])
    assert distribution_divergence(p, p) == 0.0
    assert distribution_divergence(p, q) == 1.0  # disjoint supports
    r = predicate_distribution([T("a", "x", "b"), T("c", "y", "d")])
    assert distribution_divergence(p, r) == pytest.approx(
        distribution_divergence(r, p), abs=1e-12
    )
    assert 0.0 <= distribution_divergence(p, r) <= 1.0


def test_divergence_rejects_empty_distributions():
    full = predicate_distribution([T("a", "x", "b")])
    empty = predicate_distribution([])
    with pytest.raises(ValueError):
        distribution_divergence(full, empty)


# ---------------------------------------------------------------------------
# redundancy and coverage
# ---------------------------------------------------------------------------


def test_redundancy_flags_inflected_predicate_pair(mock_client):
    triples = [
        T("japan", "expands trade with", "thailand"),
        T("japan", "expand trade with", "thailand"),
    ]
    assert redundancy_score(triples, mock_client) == 1.0


def test_redundancy_requires_same_subject_and_object(mock_client):
    triples = [
        T("japan", "expands trade with", "thailand"),
        T("japan", "expand trade with", "chile"),
    ]
    assert redundancy_score(triples, mock_client) == 0.0


def test_redundancy_identical_predicates_count(mock_client):
    triples = [T("a", "signed", "b"), T("a", "signed", "b")]
    assert redundancy_score(triples, mock_client) == 1.0


def test_redundancy_fraction_of_all_triples(mock_client):
    triples = [
        T("japan", "expands trade with", "thailand"),
        T("japan", "expand trade with", "thailand"),
        T("chile", "grants", "market access"),
    ]
    assert redundancy_score(triples, mock_client) == pytest.approx(2 / 3)


def test_redundancy_respects_threshold(mock_client):
    triples = [
        T("japan", "ratifies", "x"),
        T("japan", "ratified", "x"),  # cosine ~0.59, below any sane threshold
    ]
    assert redundancy_score(triples, mock_client, threshold=0.9) == 0.0
    assert redundancy_score(triples, mock_client, threshold=0.5) == 1.0


def test_redundancy_rejects_empty(mock_client):
    with pytest.raises(ValueError):
        redundancy_score([], mock_client)


_PREDICATES = ("expands trade with", "expand trade with", "ratifies", "ratified", "signed")


def _redundancy_by_pairs(triples, embedder, threshold) -> float:
    """Every pair of triples, each predicate pair's cosine computed again at each visit."""
    vectors = dict(zip(_PREDICATES, embedder.embed(list(_PREDICATES))))
    redundant = set()
    for i, j in itertools.combinations(range(len(triples)), 2):
        first, second = triples[i], triples[j]
        if (first.subject, first.object) != (second.subject, second.object):
            continue
        if first.predicate == second.predicate:
            cosine = 1.0
        else:
            cosine = vectors[first.predicate].cosine(vectors[second.predicate])
        if cosine >= threshold:
            redundant |= {i, j}
    return len(redundant) / len(triples)


# one threshold is a predicate pair's own cosine, where the verdict turns on >=; above 1.0
# no pair is near, not even two triples with the same predicate
_THRESHOLDS = (
    0.0,
    0.5,
    EmbeddingVector(mock_embedding("ratifies")).cosine(EmbeddingVector(mock_embedding("ratified"))),
    0.85,
    1.0,
    math.nextafter(1.0, 2.0),
    1.5,
)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from("ab"), st.sampled_from(_PREDICATES), st.sampled_from("xy")),
        min_size=1,
        max_size=40,
    ),
    st.sampled_from(_THRESHOLDS),
)
def test_redundancy_equals_a_plain_pairwise_loop(rows, threshold):
    triples = [T(*row) for row in rows]
    with make_client(EndpointConfig(seed=42), backend="mock") as client:
        expected = _redundancy_by_pairs(triples, client, threshold)
        assert redundancy_score(triples, client, threshold) == expected
        # a view reads the vectors of a table that also codes a gold set, as eval's runs do
        view = CodeTable([T("b", "ratified", "y")], [triples]).view(triples)
        assert redundancy_score(view, client, threshold) == expected


def test_coverage_counts_gold_entities_found():
    predicted = [T("japan", "signed", "the protocol")]
    gold = [G("japan", "signed", "tariffs"), G("chile", "grants", "the protocol")]
    # gold entities: japan, tariffs, chile, the protocol; found: japan, the protocol
    assert coverage_score(predicted, gold) == pytest.approx(0.5)
    assert coverage_score([], gold) == 0.0


def test_coverage_rejects_empty_gold():
    with pytest.raises(ValueError):
        coverage_score([T("a", "b", "c")], [])


# ---------------------------------------------------------------------------
# annotation sampling
# ---------------------------------------------------------------------------


def _run_with(n: int) -> ExtractionRun:
    triples = [T(f"s{i}", "signed", f"o{i}") for i in range(n)]
    return ExtractionRun(
        variant=PromptVariant.ZERO_SHOT,
        triples=triples,
        stats={},
        endpoint_fingerprint="",
        prompt_fingerprint="",
    )


def test_sampling_is_deterministic_per_seed():
    run = _run_with(500)
    first = sample_for_annotation(run, n=100, seed=42)
    second = sample_for_annotation(run, n=100, seed=42)
    assert [r.triple for r in first] == [r.triple for r in second]
    different = sample_for_annotation(run, n=100, seed=43)
    assert [r.triple for r in first] != [r.triple for r in different]


def test_sampling_draws_distinct_triples_without_replacement():
    run = _run_with(200)
    records = sample_for_annotation(run, n=100, seed=1)
    assert len(records) == 100
    assert len({id(r.triple) for r in records}) == 100


def test_sampling_returns_everything_when_run_is_small():
    run = _run_with(7)
    records = sample_for_annotation(run, n=100, seed=42)
    assert len(records) == 7


def test_annotation_record_scores_default_to_unscored():
    record = sample_for_annotation(_run_with(3), n=1, seed=0)[0]
    assert set(record.scores) == set(ANNOTATION_METRICS)
    assert all(value is None for value in record.scores.values())


def test_annotation_csv_writes_filled_scores_and_blank_cells(tmp_path):
    records = sample_for_annotation(_run_with(5), n=3, seed=42)
    records[0].scores["coverage"] = 4
    records[0].comment = "solid"
    path = tmp_path / "annotation_sample.csv"
    write_annotation_csv(records, path)
    rows = list(csv.DictReader(io.StringIO(path.read_text(encoding="utf-8"))))
    assert len(rows) == 3
    for record, row in zip(records, rows):
        t = record.triple
        assert (row["subject"], row["predicate"], row["object"]) == (
            t.subject, t.predicate, t.object
        )
        assert row["variant"] == t.variant.value
        assert row["chunk_index"] == str(t.chunk_index)
    assert rows[0]["coverage"] == "4"
    assert rows[0]["comment"] == "solid"
    assert all(rows[0][m] == "" for m in ANNOTATION_METRICS if m != "coverage")
    assert all(row[m] == "" for row in rows[1:] for m in ANNOTATION_METRICS)
