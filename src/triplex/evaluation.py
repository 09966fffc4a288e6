"""Matching predicted triples against gold, and the derived quality scores.

Three match modes share one one-to-one matching machinery:

* exact: all three normalized fields equal;
* partial: at least two of the three fields equal;
* semantic: the mean of the three per-field embedding cosines, eligible when
  it reaches the similarity threshold.

Pairs can be selected greedily or optimally (maximum pair count, then
maximum total score). Greedy takes the highest score first. In the exact and
partial modes every eligible pair scores 1.0, so that rule sets no order and
both policies return a maximum matching, found by augmenting paths. In
semantic mode greedy walks the scores in descending order, ties broken by
lower predicted index then lower gold index.
"""

from __future__ import annotations

import csv
import enum
import io
import itertools
import json
import random
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Mapping, Protocol, Sequence

import numpy as np

from .artifacts import write_text
from .errors import ConfigurationError
from .extraction import ExtractionRun, Triple
from .gold import GoldTriple

__all__ = [
    "MatchMode",
    "AssignmentPolicy",
    "MatchConfig",
    "MatchResult",
    "Metrics",
    "f1_score",
    "metrics_from",
    "match",
    "PredicateDistribution",
    "predicate_distribution",
    "distribution_divergence",
    "redundancy_score",
    "coverage_score",
    "ANNOTATION_METRICS",
    "AnnotationRecord",
    "sample_for_annotation",
    "write_annotation_csv",
]

DEFAULT_REDUNDANCY_THRESHOLD = 0.9
# (subject, predicate, object) of anything match takes: a triple, a gold triple or the like
_fields = attrgetter(*GoldTriple._fields)

ANNOTATION_METRICS = (
    "relation_validation",
    "entity_relation_coherence",
    "triple_completeness",
    "semantic_correctness",
    "information_gain",
    "redundancy",
    "predicate_distribution",
    "coverage",
)


class Embedder(Protocol):
    def embed(self, texts: Sequence[str]) -> list: ...


class MatchMode(enum.Enum):
    EXACT = "exact"
    PARTIAL = "partial"
    SEMANTIC = "semantic"


class AssignmentPolicy(enum.Enum):
    GREEDY = "greedy"
    OPTIMAL = "optimal"


@dataclass(frozen=True)
class MatchConfig:
    mode: MatchMode = MatchMode.EXACT
    semantic_threshold: float = 0.75
    assignment: AssignmentPolicy = AssignmentPolicy.GREEDY

    def __post_init__(self) -> None:
        if not 0.0 < self.semantic_threshold <= 1.0:
            raise ConfigurationError(
                f"semantic_threshold must be in (0, 1], got {self.semantic_threshold}"
            )


@dataclass(frozen=True)
class MatchResult:
    """A one-to-one pairing of predicted against gold triples."""

    pairs: tuple[tuple[int, int, float], ...]
    unmatched_predicted: tuple[int, ...]
    unmatched_gold: tuple[int, ...]

    def __post_init__(self) -> None:
        predicted_side = [p for p, _, _ in self.pairs]
        gold_side = [g for _, g, _ in self.pairs]
        if len(set(predicted_side)) != len(predicted_side) or len(set(gold_side)) != len(
            gold_side
        ):
            raise ValueError("matching is not one-to-one")

    @property
    def total_score(self) -> float:
        return float(sum(score for _, _, score in self.pairs))


@dataclass(frozen=True)
class Metrics:
    precision: float
    recall: float
    f1: float


def f1_score(precision: float, recall: float) -> float:
    """Harmonic mean of precision and recall; zero when both are zero."""
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def metrics_from(result: MatchResult, n_predicted: int, n_gold: int) -> Metrics:
    """Precision, recall, and F1 for a match result.

    Recall divides by the full gold count: the benchmark is treated as the
    complete set of expected triples.
    """
    pairs = len(result.pairs)
    if n_predicted < pairs or n_gold < pairs:
        raise ValueError("pair count exceeds predicted or gold count")
    precision = pairs / n_predicted if n_predicted else 0.0
    recall = pairs / n_gold if n_gold else 0.0
    return Metrics(precision=precision, recall=recall, f1=f1_score(precision, recall))


@dataclass(frozen=True)
class ModeScores(Metrics):
    """One match mode's entry in ``eval_report.json``: P/R/F1, pair counts and settings."""

    pairs: int
    unmatched_predicted: int
    unmatched_gold: int
    semantic_threshold: float
    assignment: str

    def __post_init__(self) -> None:
        for name in ("precision", "recall", "f1"):
            if not 0.0 <= getattr(self, name) <= 1.0:  # NaN fails the comparison too
                got = json.dumps(getattr(self, name))
                raise ConfigurationError(f"{name} must be a number in [0, 1], got {got}")


@dataclass(frozen=True)
class VariantScores:
    """One run's entry in ``eval_report.json``."""

    exact: ModeScores
    partial: ModeScores
    semantic: ModeScores
    redundancy: float
    jsd_to_gold: float
    coverage: float
    n_predicted: int


@dataclass(frozen=True)
class EvalReport:
    """``eval_report.json``: ``eval`` writes it and ``report`` reads it back."""

    header: dict
    variants: dict[str, VariantScores]


def _field_strings(triples: Iterable) -> Iterable[str]:
    return itertools.chain.from_iterable(map(_fields, triples))


class CodeTable:
    """An eval's distinct field strings, one integer code each, the gold set's first.

    :attr:`gold` and :meth:`view` carry their triples' ``(n, 3)`` codes. Semantic edges and
    redundancy read the strings' unit vectors, kept here alone, and one cosine matrix of
    every string against the gold strings, embedded in one call: a view needs no other.
    """

    def __init__(self, gold: Sequence, runs: Iterable[Sequence]) -> None:
        strings = dict.fromkeys(_field_strings(gold))
        self.n_gold_strings = len(strings)  # the gold strings' codes are below it
        strings.update(dict.fromkeys(_field_strings(itertools.chain.from_iterable(runs))))
        self._code = {text: i for i, text in enumerate(strings)}
        self.vectors = self.cosine = None  # (strings, d) and (strings, gold strings), by embed
        self.gold = self.view(gold)

    def view(self, triples: Sequence) -> "CodedTriples":
        """``triples``, whose every field the table holds, with their codes."""
        view = CodedTriples(triples)
        codes = map(self._code.__getitem__, _field_strings(view))
        view.table, view.codes = self, np.fromiter(codes, np.intp, 3 * len(view)).reshape(-1, 3)
        return view

    def embed(self, embedder: Embedder) -> "CodeTable":
        """The table; the first call sets its unit vectors and clipped cosines (equal codes 1.0)."""
        if self.vectors is None:
            self.vectors = np.array([v.values for v in embedder.embed([*self._code])])
            # einsum sums in numpy's own loop on this thread: a BLAS product hands the
            # work to OpenBLAS threads, whose spinning slows the rest of the process
            self.cosine = np.einsum("ik,jk->ij", self.vectors, self.vectors[: self.n_gold_strings])
            np.clip(self.cosine, -1.0, 1.0, out=self.cosine)
            np.fill_diagonal(self.cosine, 1.0)  # each gold string against itself
        return self


class CodedTriples(tuple):
    """Triples with their field codes in a :class:`CodeTable`."""

    table: CodeTable
    codes: np.ndarray
    agreements: np.ndarray | None = None  # per (triple, gold triple), the equal fields


def _eligible_edges(
    predicted: Sequence,
    gold: Sequence,
    config: MatchConfig,
    embedder: Embedder | None,
) -> list[tuple[int, int, float]]:
    if config.mode is MatchMode.SEMANTIC and embedder is None:
        raise ConfigurationError("semantic matching requires an embedder")
    if not predicted or not gold:
        return []
    if not (isinstance(predicted, CodedTriples) and gold is predicted.table.gold):
        table = CodeTable(gold, [predicted])
        predicted, gold = table.view(predicted), table.gold
    pc, gc = predicted.codes, gold.codes
    if config.mode is not MatchMode.SEMANTIC:
        if predicted.agreements is None:  # counted once for the exact and the partial match
            predicted.agreements = np.zeros((len(pc), len(gc)), dtype=np.uint8)
            for k in range(3):
                predicted.agreements += pc[:, k, None] == gc[:, k]
        required = 3 if config.mode is MatchMode.EXACT else 2
        rows, cols = np.nonzero(predicted.agreements >= required)
        return list(zip(rows.tolist(), cols.tolist(), itertools.repeat(1.0)))
    cosine = predicted.table.embed(embedder).cosine
    scores = np.zeros((len(pc), len(gc)))
    for k in range(3):
        scores += cosine[pc[:, k, None], gc[:, k]]
    scores /= 3.0
    rows, cols = np.nonzero(scores >= config.semantic_threshold)
    return list(zip(rows.tolist(), cols.tolist(), scores[rows, cols].tolist()))


def _greedy_assignment(
    edges: list[tuple[int, int, float]]
) -> list[tuple[int, int, float]]:
    ordered = sorted(edges, key=lambda e: (-e[2], e[0], e[1]))
    used_predicted: set[int] = set()
    used_gold: set[int] = set()
    pairs: list[tuple[int, int, float]] = []
    for pi, gi, score in ordered:
        if pi in used_predicted or gi in used_gold:
            continue
        used_predicted.add(pi)
        used_gold.add(gi)
        pairs.append((pi, gi, score))
    return pairs


def _maximum_matching(
    edges: list[tuple[int, int, float]], n_predicted: int
) -> list[tuple[int, int, float]]:
    """A maximum-cardinality matching of unit-weight edges, by predicted index.

    A greedy pass, then phases of augmenting-path search (Kuhn) until a phase
    finds none. The search keeps its own stack, so a long path cannot reach
    the recursion limit.
    """
    adjacent: list[list[int]] = [[] for _ in range(n_predicted)]
    for pi, gi, _ in edges:
        adjacent[pi].append(gi)
    roots = [pi for pi, golds in enumerate(adjacent) if golds]
    mate: list[int | None] = [None] * n_predicted
    owner: dict[int, int] = {}  # gold index -> its matched predicted index
    for pi, gi, _ in _greedy_assignment(edges):
        mate[pi], owner[gi] = gi, pi
    golds_with_edges = len({gi for _, gi, _ in edges})
    augmented = True
    while augmented:
        augmented = False
        # shared by the phase's searches; a phase with no augmentation proves maximality
        visited: set[int] = set()
        for root in roots:
            if len(owner) == golds_with_edges:
                break
            if mate[root] is not None:
                continue
            stack = [(root, iter(adjacent[root]))]
            taken: list[int] = []  # taken[i] is the gold vertex stack[i] went through
            while stack:
                gi = next((g for g in stack[-1][1] if g not in visited), None)
                if gi is None:
                    stack.pop()
                    if taken:
                        taken.pop()  # the gold vertex that led to the popped one
                    continue
                visited.add(gi)
                taken.append(gi)
                if gi in owner:
                    stack.append((owner[gi], iter(adjacent[owner[gi]])))
                    continue
                for (pi, _), g in zip(stack, taken):
                    mate[pi], owner[g] = g, pi
                augmented = True
                break
    return [(pi, gi, 1.0) for pi, gi in enumerate(mate) if gi is not None]


def _optimal_assignment(
    edges: list[tuple[int, int, float]], n_predicted: int, n_gold: int
) -> list[tuple[int, int, float]]:
    if not edges:
        return []
    from scipy.optimize import linear_sum_assignment  # only semantic optimal needs it

    # a constant boost per matched pair makes cardinality dominate total score
    boost = float(min(n_predicted, n_gold)) + 1.0
    weights = np.zeros((n_predicted, n_gold), dtype=np.float64)
    eligible = np.zeros((n_predicted, n_gold), dtype=bool)
    for pi, gi, score in edges:
        weights[pi, gi] = score + boost
        eligible[pi, gi] = True
    rows, cols = linear_sum_assignment(weights, maximize=True)
    pairs = [
        (int(pi), int(gi), float(weights[pi, gi] - boost))
        for pi, gi in zip(rows, cols)
        if eligible[pi, gi]
    ]
    pairs.sort(key=lambda e: (e[0], e[1]))
    return pairs


def match(
    predicted: Sequence,
    gold: Sequence,
    config: MatchConfig,
    embedder: Embedder | None = None,
) -> MatchResult:
    """Pair predicted triples with gold triples one-to-one."""
    edges = _eligible_edges(predicted, gold, config, embedder)
    if config.mode is not MatchMode.SEMANTIC:
        # unit scores leave greedy's order to the tie-break; a maximum
        # matching is what highest-score-first returns for some order of ties
        pairs = _maximum_matching(edges, len(predicted))
    elif config.assignment is AssignmentPolicy.GREEDY:
        pairs = _greedy_assignment(edges)
    else:
        pairs = _optimal_assignment(edges, len(predicted), len(gold))
    matched_predicted = {pi for pi, _, _ in pairs}
    matched_gold = {gi for _, gi, _ in pairs}
    return MatchResult(
        pairs=tuple(pairs),
        unmatched_predicted=tuple(
            i for i in range(len(predicted)) if i not in matched_predicted
        ),
        unmatched_gold=tuple(i for i in range(len(gold)) if i not in matched_gold),
    )


@dataclass(frozen=True)
class PredicateDistribution:
    """Predicate frequency counts for a set of triples."""

    counts: Mapping[str, int]
    total: int

    def __post_init__(self) -> None:
        if self.total != sum(self.counts.values()):
            raise ValueError("distribution total does not match counts")


def predicate_distribution(triples: Iterable) -> PredicateDistribution:
    counts = Counter(triple.predicate for triple in triples)
    return PredicateDistribution(counts=counts, total=counts.total())


def distribution_divergence(p: PredicateDistribution, q: PredicateDistribution) -> float:
    """Jensen-Shannon divergence in bits, between 0 and 1."""
    if p.total <= 0 or q.total <= 0:
        raise ValueError("divergence requires non-empty distributions")
    support = sorted(set(p.counts) | set(q.counts))
    pa = np.array([p.counts.get(k, 0) for k in support], dtype=np.float64) / p.total
    qa = np.array([q.counts.get(k, 0) for k in support], dtype=np.float64) / q.total
    mid = 0.5 * (pa + qa)

    def half_divergence(a: np.ndarray) -> float:
        mask = a > 0
        return float(np.sum(a[mask] * np.log2(a[mask] / mid[mask])))

    jsd = 0.5 * half_divergence(pa) + 0.5 * half_divergence(qa)
    return float(min(max(jsd, 0.0), 1.0))


def redundancy_score(
    triples: Sequence[Triple],
    embedder: Embedder,
    threshold: float = DEFAULT_REDUNDANCY_THRESHOLD,
) -> float:
    """Fraction of triples that near-duplicate another triple.

    Two triples are near-duplicates when subject and object are identical and
    their predicate embeddings have cosine at or above ``threshold``. A view reads its
    table's vectors, with no embedder call once embedded; a plain list gets a table.
    """
    if not triples:
        raise ValueError("redundancy_score requires at least one triple")
    if not isinstance(triples, CodedTriples):
        triples = CodeTable((), [triples]).view(triples)
    # per (subject, object) code pair, how many triples hold each predicate code
    groups: defaultdict[tuple[int, int], Counter[int]] = defaultdict(Counter)
    for subject, predicate, obj in triples.codes.tolist():
        groups[subject, obj][predicate] += 1
    multi = [counts for counts in groups.values() if counts.total() > 1]
    if not multi:
        return 0.0
    # one block of cosines among the predicates that share a group with another triple
    row = {code: i for i, code in enumerate({code for counts in multi for code in counts})}
    vectors = triples.table.embed(embedder).vectors[[*row]]
    cosine = np.clip(np.einsum("ik,jk->ij", vectors, vectors), -1.0, 1.0)
    np.fill_diagonal(cosine, 1.0)  # a repeated predicate's triples near-duplicate each other
    near = (cosine >= threshold).tolist()
    redundant = 0
    for counts in multi:
        for code, n in counts.items():
            if any(near[row[code]][row[other]] for other in counts if other != code or n > 1):
                redundant += n
    return redundant / len(triples)


def coverage_score(predicted: Sequence[Triple], gold: Sequence[GoldTriple]) -> float:
    """Fraction of gold entities that appear in any predicted triple."""
    if not gold:
        raise ValueError("coverage_score requires a non-empty gold set")
    gold_entities = {t.subject for t in gold} | {t.object for t in gold}
    predicted_entities = {t.subject for t in predicted} | {t.object for t in predicted}
    covered = gold_entities & predicted_entities
    return len(covered) / len(gold_entities)


@dataclass
class AnnotationRecord:
    """One sampled triple awaiting human 1-5 scores on the eight dimensions."""

    triple: Triple
    scores: dict[str, int | None] = field(
        default_factory=lambda: {name: None for name in ANNOTATION_METRICS}
    )
    comment: str = ""


def sample_for_annotation(run: ExtractionRun, n: int, seed: int) -> list[AnnotationRecord]:
    """Uniformly sample ``n`` distinct triples for human annotation.

    Deterministic for a fixed seed; returns everything when the run holds
    fewer than ``n`` triples.
    """
    triples = run.triples
    k = min(n, len(triples))
    rng = random.Random(seed)
    chosen = rng.sample(range(len(triples)), k) if k else []
    return [AnnotationRecord(triple=triples[i]) for i in chosen]


# the scoresheet's columns: the triple's up to its variant, one per quality dimension, a comment
_CSV_COLUMNS = (*Triple._fields[:7], *ANNOTATION_METRICS, "comment")


def write_annotation_csv(records: Sequence[AnnotationRecord], path: str | Path) -> None:
    """Write the scoresheet as CSV with ``\\r\\n`` row endings.

    A file already at ``path`` is replaced only by the same bytes, so a sheet
    someone may have scored is never lost to another draw.
    """
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(_CSV_COLUMNS)
    for record in records:
        *cells, variant = record.triple[:7]
        scores = [record.scores.get(m) for m in ANNOTATION_METRICS]
        scores = ["" if score is None else score for score in scores]
        writer.writerow([*cells, variant.value, *scores, record.comment])
    text, target = buffer.getvalue(), Path(path)
    if target.is_file() and target.read_bytes() != text.encode("utf-8"):
        raise ConfigurationError(
            f"{target} holds a different annotation sheet; move it away to draw a new one"
        )
    write_text(target, text)
