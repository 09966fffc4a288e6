"""Independent oracles shared by unit and acceptance tests.

Everything here is written from the matching rules themselves, not from the
implementation: eligibility is recomputed field by field, and the assignment
oracle is an exhaustive search over gold subsets rather than a linear
assignment solver. The parser and tokenizer references are the plain,
slower implementations those functions replaced, kept as written: the fast
ones must give the same result on every input.
"""

from __future__ import annotations

import random
import re
from functools import lru_cache

from triplex.evaluation import MatchMode
from triplex.corpus import PreprocessConfig
from triplex.extraction import Triple, TripleCandidate
from triplex.gold import GoldTriple
from triplex.prompting import PromptVariant

FIELDS = ("subject", "predicate", "object")


def triple_fields(triple) -> tuple[str, str, str]:
    return (triple.subject, triple.predicate, triple.object)


def eligible_edges_oracle(predicted, gold, mode, threshold=0.75, embedder=None):
    """Recompute the eligible (pred, gold, score) edges straight from the rules."""
    edges = []
    vectors = {}
    if mode is MatchMode.SEMANTIC:
        texts = sorted(
            {f for t in predicted for f in triple_fields(t)}
            | {f for t in gold for f in triple_fields(t)}
        )
        if texts:
            vectors = dict(zip(texts, embedder.embed(texts)))
    for pi, p in enumerate(predicted):
        for gi, g in enumerate(gold):
            pf, gf = triple_fields(p), triple_fields(g)
            if mode is MatchMode.EXACT:
                if pf == gf:
                    edges.append((pi, gi, 1.0))
            elif mode is MatchMode.PARTIAL:
                if sum(a == b for a, b in zip(pf, gf)) >= 2:
                    edges.append((pi, gi, 1.0))
            else:
                score = sum(
                    1.0 if a == b else vectors[a].cosine(vectors[b])
                    for a, b in zip(pf, gf)
                ) / 3.0
                if score >= threshold:
                    edges.append((pi, gi, score))
    return edges


def best_assignment_oracle(edges, n_predicted: int) -> tuple[int, float]:
    """Exhaustive maximum matching, maximizing (pair count, total score).

    Memoized on (next predicted index, bitmask of used gold); fine for the
    small instances the tests generate (n_gold <= ~12).
    """
    adjacency: dict[int, list[tuple[int, float]]] = {}
    for pi, gi, score in edges:
        adjacency.setdefault(pi, []).append((gi, score))

    @lru_cache(maxsize=None)
    def recurse(i: int, used: int) -> tuple[int, float]:
        if i == n_predicted:
            return (0, 0.0)
        best = recurse(i + 1, used)
        for gi, score in adjacency.get(i, ()):
            if not used & (1 << gi):
                count, total = recurse(i + 1, used | (1 << gi))
                candidate = (count + 1, total + score)
                if candidate > best:
                    best = candidate
        return best

    result = recurse(0, 0)
    recurse.cache_clear()
    return result


_VOCAB_SUBJECTS = ("japan", "thailand", "canada", "norway", "chile")
_VOCAB_PREDICATES = ("signed", "ratifies", "exports", "reduces", "grants")
_VOCAB_OBJECTS = ("tariffs", "quotas", "the protocol", "market access", "duties")


def random_instance(rng: random.Random, max_gold: int = 6, max_predicted: int = 6):
    """A random (predicted, gold) pair with heavy field overlap.

    Gold is duplicate-free (as load_gold guarantees); predicted triples are
    perturbed copies of gold rows plus random extras, so exact, partial, and
    near-miss relationships all occur.
    """
    n_gold = rng.randint(1, max_gold)
    gold_set = set()
    while len(gold_set) < n_gold:
        gold_set.add(
            GoldTriple(
                rng.choice(_VOCAB_SUBJECTS),
                rng.choice(_VOCAB_PREDICATES),
                rng.choice(_VOCAB_OBJECTS),
            )
        )
    gold = sorted(gold_set)

    n_predicted = rng.randint(0, max_predicted)
    predicted = []
    for _ in range(n_predicted):
        if gold and rng.random() < 0.7:
            base = list(triple_fields(rng.choice(gold)))
            for index in range(3):
                if rng.random() < 0.35:
                    pool = (_VOCAB_SUBJECTS, _VOCAB_PREDICATES, _VOCAB_OBJECTS)[index]
                    base[index] = rng.choice(pool)
            subject, predicate, obj = base
        else:
            subject = rng.choice(_VOCAB_SUBJECTS)
            predicate = rng.choice(_VOCAB_PREDICATES)
            obj = rng.choice(_VOCAB_OBJECTS)
        predicted.append(
            Triple(
                subject=subject,
                predicate=predicate,
                object=obj,
                doc_id="synthetic",
                article_id="article:001",
                chunk_index=0,
                variant=PromptVariant.ZERO_SHOT,
            )
        )
    return predicted, gold


_QUOTED_TUPLE_RE = re.compile(
    r"""^\(?\s*(['"])(?P<s>.*?)\1\s*,\s*(['"])(?P<p>.*?)\3\s*,\s*(['"])(?P<o>.*?)\5\s*\)?\s*[.,;]?\s*$"""
)


def parse_triples_oracle(raw_text: str) -> tuple[list[TripleCandidate], list[tuple[int, str, str]]]:
    """``parse_triples`` line by line with a list per field, the reference it must match."""
    candidates: list[TripleCandidate] = []
    rejections: list[tuple[int, str, str]] = []
    for number, raw_line in enumerate(raw_text.splitlines(), start=1):
        line = raw_line.strip()
        if not line:
            rejections.append((number, raw_line, "blank line"))
            continue
        if "|" in line:
            body = line.rstrip(".,;")
            if body.startswith("(") and body.endswith(")"):
                body = body[1:-1]
            fields = [part.strip() for part in body.split("|")]
            if len(fields) != 3:
                rejections.append(
                    (number, raw_line, f"expected 3 fields separated by '|', got {len(fields)}")
                )
                continue
        else:
            quoted = _QUOTED_TUPLE_RE.match(line)
            if not quoted:
                rejections.append((number, raw_line, "not a recognizable triple line"))
                continue
            fields = [field.strip() for field in quoted.group("s", "p", "o")]
        empty = [name for name, field in zip(TripleCandidate._fields, fields) if not field]
        if empty:
            rejections.append((number, raw_line, f"empty {', '.join(empty)}"))
            continue
        candidates.append(TripleCandidate(*fields, source_line=raw_line, line_number=number))
    return candidates, rejections


_TOKEN_RE = re.compile(r"\w+|[^\w\s]+")


def preprocess_oracle(text: str, config: PreprocessConfig) -> str:
    """``preprocess`` one token match at a time, the reference it must match."""
    removal = config.removal_terms
    pieces: list[str] = []
    sep = ""  # the text since the last kept token, removed tokens left out
    pos = 0
    for m in _TOKEN_RE.finditer(text):
        sep += text[pos : m.start()]
        pos = m.end()
        token = m.group()
        if token.lower() in removal:
            continue
        if pieces:
            pieces.append((" " if sep else "") if config.collapse_whitespace else sep)
        sep = ""
        pieces.append(token.lower() if config.lowercase else token)
    return "".join(pieces)
