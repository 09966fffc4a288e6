"""Prompt variants, example bank validation, template rendering, clause accretion."""

from __future__ import annotations

import hashlib
from dataclasses import replace

import pytest

from triplex.errors import BankValidationError, ConfigurationError
from triplex.extraction import parse_triples
from triplex.prompting import (
    ExampleBank,
    PromptTemplates,
    PromptVariant,
    build_prompt,
    constraint_clauses,
    validate_bank,
)

CHUNK = "Japan shall eliminate customs duties on originating goods of Thailand."

LADDER = [
    PromptVariant.ZERO_SHOT,
    PromptVariant.ONE_SHOT,
    PromptVariant.FEW_SHOT,
    PromptVariant.NEGATIVE_EXAMPLES,
]


# ---------------------------------------------------------------------------
# variant enum
# ---------------------------------------------------------------------------


def test_variant_names_and_order():
    assert [v.value for v in LADDER] == [
        "zero-shot",
        "one-shot",
        "few-shot",
        "negative-examples",
    ]
    assert LADDER == sorted(LADDER)
    assert [v.rank for v in LADDER] == [0, 1, 2, 3]
    assert PromptVariant.ZERO_SHOT < PromptVariant.NEGATIVE_EXAMPLES
    with pytest.raises(TypeError):  # a variant orders only against variants
        PromptVariant.ZERO_SHOT < 1


def test_constructor_round_trips():
    for variant in PromptVariant:
        assert PromptVariant(variant.value) is variant


def test_constructor_unknown_lists_valid_names():
    with pytest.raises(ConfigurationError) as excinfo:
        PromptVariant("two-shot")
    message = str(excinfo.value)
    for name in ("zero-shot", "one-shot", "few-shot", "negative-examples"):
        assert name in message


# ---------------------------------------------------------------------------
# bank validation
# ---------------------------------------------------------------------------


def test_full_bank_supports_every_variant(bank):
    for variant in PromptVariant:
        assert validate_bank(bank, variant) == []


def test_zero_shot_needs_nothing(bank):
    bare = ExampleBank(
        ner_definition="",
        positive_examples=(),
        negative_examples=(),
        negated_instructions=(),
        focus_verbs=("sign",),
    )
    assert validate_bank(bare, PromptVariant.ZERO_SHOT) == []
    # a bank with no positive example still renders a zero-shot prompt, its slots filled
    text = build_prompt(PromptVariant.ZERO_SHOT, bare, CHUNK).text
    assert CHUNK in text and "{{" not in text


def test_missing_definition_reported_for_one_shot(bank):
    broken = replace(bank, ner_definition="  ")
    assert "missing ner_definition" in validate_bank(broken, PromptVariant.ONE_SHOT)


def test_few_shot_needs_three_positives(bank):
    broken = replace(bank, positive_examples=bank.positive_examples[:2])
    deficiencies = validate_bank(broken, PromptVariant.FEW_SHOT)
    assert "needs at least 3 positive examples (have 2)" in deficiencies


def test_negative_variant_needs_negatives_and_prohibitions(bank):
    broken = replace(bank, negative_examples=(), negated_instructions=())
    deficiencies = validate_bank(broken, PromptVariant.NEGATIVE_EXAMPLES)
    assert "needs at least 1 negative example" in deficiencies
    assert "needs at least 1 negated instruction" in deficiencies


def test_build_prompt_raises_naming_each_deficiency(bank):
    broken = replace(bank, negative_examples=(), negated_instructions=())
    with pytest.raises(BankValidationError) as excinfo:
        build_prompt(PromptVariant.NEGATIVE_EXAMPLES, broken, CHUNK)
    message = str(excinfo.value)
    assert "example bank is incomplete" in message
    assert "negative example" in message
    assert "negated instruction" in message
    assert excinfo.value.deficiencies == [
        "needs at least 1 negative example",
        "needs at least 1 negated instruction",
    ]


def test_deficient_bank_raises_on_every_call(bank):
    templates = PromptTemplates.default()
    build_prompt(PromptVariant.NEGATIVE_EXAMPLES, bank, CHUNK, templates)
    broken = replace(bank, negative_examples=())
    for _ in range(2):
        with pytest.raises(BankValidationError):
            build_prompt(PromptVariant.NEGATIVE_EXAMPLES, broken, CHUNK, templates)


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def test_zero_shot_mentions_entities_and_verbs_but_no_examples(bank):
    prompt = build_prompt(PromptVariant.ZERO_SHOT, bank, CHUNK)
    assert prompt.variant is PromptVariant.ZERO_SHOT
    assert "Named Entities" in prompt.text
    assert "verb" in prompt.text
    assert CHUNK in prompt.text
    for example in bank.positive_examples:
        assert example.snippet not in prompt.text


def test_one_shot_renders_exactly_the_first_positive_example(bank):
    prompt = build_prompt(PromptVariant.ONE_SHOT, bank, CHUNK)
    assert bank.ner_definition in prompt.text
    assert bank.positive_examples[0].snippet in prompt.text
    for example in bank.positive_examples[1:]:
        assert example.snippet not in prompt.text
    for verb in bank.focus_verbs:
        assert f'"{verb}"' in prompt.text


def test_few_shot_renders_all_positive_examples(bank):
    prompt = build_prompt(PromptVariant.FEW_SHOT, bank, CHUNK)
    for example in bank.positive_examples:
        assert example.snippet in prompt.text


def test_negative_variant_renders_negatives_and_directives(bank):
    prompt = build_prompt(PromptVariant.NEGATIVE_EXAMPLES, bank, CHUNK)
    for example in bank.negative_examples:
        s, p, o = example.triple
        assert f"({s} | {p} | {o})" in prompt.text
        assert example.reason in prompt.text
    for instruction in bank.negated_instructions:
        assert instruction in prompt.text
    assert "generic term" in prompt.text
    assert "pronouns" in prompt.text.lower()


def test_no_unfilled_placeholders_in_any_rendered_prompt(bank):
    for variant in PromptVariant:
        prompt = build_prompt(variant, bank, CHUNK)
        assert "{{" not in prompt.text
        assert "}}" not in prompt.text


def test_rendering_is_deterministic(bank):
    for variant in PromptVariant:
        first = build_prompt(variant, bank, CHUNK)
        second = build_prompt(variant, bank, CHUNK)
        assert first == second


def test_filled_template_follows_the_bank_even_when_one_takes_a_dropped_banks_id(bank):
    templates = PromptTemplates.default()
    first = ExampleBank(bank.ner_definition, bank.positive_examples[:1])
    first_prompt = build_prompt(PromptVariant.ONE_SHOT, first, CHUNK, templates).text
    snippet = "Chile shall reduce tariffs on copper."
    examples = (replace(bank.positive_examples[0], snippet=snippet),)
    del first
    # built from arguments made beforehand, this bank most likely takes the dropped one's memory,
    # and so its id
    second = ExampleBank(bank.ner_definition, examples)
    second_prompt = build_prompt(PromptVariant.ONE_SHOT, second, CHUNK, templates).text
    assert snippet not in first_prompt
    assert snippet in second_prompt
    assert second_prompt == build_prompt(PromptVariant.ONE_SHOT, second, CHUNK).text


def test_prompt_examples_parse_with_the_output_grammar(bank):
    """The format the prompt demonstrates must be the format the parser reads."""
    prompt = build_prompt(PromptVariant.FEW_SHOT, bank, "EMPTY_CASE")
    example_lines = [
        line
        for line in prompt.text.splitlines()
        if line.startswith("(") and "|" in line
    ]
    assert example_lines, "prompts must demonstrate at least one triple line"
    for line in example_lines:
        candidates, rejections = parse_triples(line)
        assert len(candidates) == 1, (line, rejections)


# ---------------------------------------------------------------------------
# clause accretion and fingerprints
# ---------------------------------------------------------------------------


def test_constraint_clauses_strip_placeholders_and_blank_paragraphs():
    text = "Do the task.\n\nUse this example:\n\n{{example}}\n\nText:\n{{chunk}}"
    clauses = constraint_clauses(text)
    assert clauses == ("Do the task.", "Use this example:", "Text:")


def test_clause_sets_grow_strictly_along_the_ladder():
    templates = PromptTemplates.default()
    for earlier, later in zip(LADDER, LADDER[1:]):
        earlier_clauses = set(templates.constraint_clauses(earlier))
        later_clauses = set(templates.constraint_clauses(later))
        assert earlier_clauses < later_clauses, (earlier, later)


def test_fingerprint_matches_independent_hash():
    templates = PromptTemplates.default()
    for variant in PromptVariant:
        joined = "\n".join(constraint_clauses(templates.template(variant)))
        expected = hashlib.sha256(joined.encode("utf-8")).hexdigest()
        assert templates.fingerprint(variant) == expected


def test_fingerprints_differ_between_variants(bank):
    templates = PromptTemplates.default()
    prints = {templates.fingerprint(v) for v in PromptVariant}
    assert len(prints) == len(list(PromptVariant))
    prompt = build_prompt(PromptVariant.ONE_SHOT, bank, CHUNK)
    assert prompt.constraint_fingerprint == templates.fingerprint(PromptVariant.ONE_SHOT)


def test_chunk_text_never_changes_the_fingerprint(bank):
    first = build_prompt(PromptVariant.FEW_SHOT, bank, "Japan exports cars.")
    second = build_prompt(PromptVariant.FEW_SHOT, bank, "Chile exports copper.")
    assert first.constraint_fingerprint == second.constraint_fingerprint
    assert first.text != second.text


# ---------------------------------------------------------------------------
# template loading
# ---------------------------------------------------------------------------


def test_from_dir_missing_template_raises(tmp_path):
    (tmp_path / "zero-shot.txt").write_text("Text:\n{{chunk}}", encoding="utf-8")
    with pytest.raises(ConfigurationError) as excinfo:
        PromptTemplates.from_dir(tmp_path)
    assert "one-shot" in str(excinfo.value)
    # built from texts, not files: the constructor names the variant it lacks
    texts = {variant: "Text:\n{{chunk}}" for variant in PromptVariant}
    del texts[PromptVariant.FEW_SHOT]
    with pytest.raises(ConfigurationError, match="missing prompt templates: few-shot$"):
        PromptTemplates(texts)


def test_template_without_chunk_placeholder_raises(tmp_path):
    for variant in PromptVariant:
        (tmp_path / f"{variant.value}.txt").write_text("Text:\n{{chunk}}", encoding="utf-8")
    (tmp_path / "few-shot.txt").write_text("no placeholder here", encoding="utf-8")
    with pytest.raises(ConfigurationError) as excinfo:
        PromptTemplates.from_dir(tmp_path)
    assert "few-shot" in str(excinfo.value)
