"""Prompt variants for triple extraction.

Four variants form a ladder: zero-shot, one-shot, few-shot, and
negative-examples. Each higher rung keeps every instruction clause of the
rung below and adds more, so variant comparisons measure the added clauses
and nothing else. Templates are plain text files with ``{{slot}}``
placeholders; the bundled set lives in ``triplex/data/prompts``.
"""

from __future__ import annotations

import enum
import functools
import hashlib
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

from .artifacts import from_json, read_json, read_text
from .defaults import default_examples_path, default_prompt_dir
from .errors import BankValidationError, ConfigurationError

__all__ = [
    "PromptVariant",
    "PositiveExample",
    "NegativeExample",
    "ExampleBank",
    "RenderedPrompt",
    "PromptTemplates",
    "load_example_bank",
    "default_example_bank",
    "validate_bank",
    "build_prompt",
    "constraint_clauses",
]

DEFAULT_FOCUS_VERBS = ("agree", "sign", "ratify", "export", "import")

_PLACEHOLDER_RE = re.compile(r"\{\{\w+\}\}")


@functools.total_ordering
class PromptVariant(enum.Enum):
    """Prompt ladder rungs, ordered from least to most constrained."""

    ZERO_SHOT = "zero-shot"
    ONE_SHOT = "one-shot"
    FEW_SHOT = "few-shot"
    NEGATIVE_EXAMPLES = "negative-examples"

    @property
    def rank(self) -> int:
        return list(PromptVariant).index(self)

    def __lt__(self, other: object) -> bool:
        if not isinstance(other, PromptVariant):
            return NotImplemented
        return self.rank < other.rank

    @classmethod
    def _missing_(cls, value: object) -> "PromptVariant":
        valid = ", ".join(v.value for v in cls)
        raise ConfigurationError(f"unknown prompt variant {value!r}; valid names: {valid}")


@dataclass(frozen=True)
class PositiveExample:
    """A source snippet with the triples a correct extraction yields."""

    snippet: str
    triples: tuple[tuple[str, str, str], ...]


@dataclass(frozen=True)
class NegativeExample:
    """A triple the model must not produce, with the reason it is wrong."""

    triple: tuple[str, str, str]
    reason: str = ""


@dataclass(frozen=True)
class ExampleBank:
    """All prompt ingredients that are data rather than template text."""

    ner_definition: str = ""
    positive_examples: tuple[PositiveExample, ...] = ()
    negative_examples: tuple[NegativeExample, ...] = ()
    negated_instructions: tuple[str, ...] = ()
    focus_verbs: tuple[str, ...] = DEFAULT_FOCUS_VERBS

    def __post_init__(self) -> None:
        if not self.focus_verbs:
            raise ConfigurationError("example bank needs at least one focus verb")
        for example in self.positive_examples:
            if not example.triples:
                raise ConfigurationError(
                    f"positive example {example.snippet[:40]!r} has no triples"
                )


@dataclass(frozen=True)
class RenderedPrompt:
    """A fully rendered prompt plus a hash of its instruction clauses."""

    variant: PromptVariant
    text: str
    constraint_fingerprint: str


def load_example_bank(path: str | Path) -> ExampleBank:
    """Load an example bank from JSON. See ``triplex/data/examples.json``."""
    return read_json(path, "example bank", functools.partial(from_json, ExampleBank))


def default_example_bank() -> ExampleBank:
    return load_example_bank(default_examples_path())


class PromptTemplates:
    """The four template texts, keyed by variant."""

    def __init__(self, texts: Mapping[PromptVariant, str]) -> None:
        missing = [v.value for v in PromptVariant if v not in texts]
        if missing:
            raise ConfigurationError(f"missing prompt templates: {', '.join(missing)}")
        for variant, text in texts.items():
            if "{{chunk}}" not in text:
                raise ConfigurationError(
                    f"template for {variant.value} has no {{{{chunk}}}} placeholder"
                )
        self._texts = dict(texts)
        self._fingerprints = {
            variant: hashlib.sha256(
                "\n".join(self.constraint_clauses(variant)).encode("utf-8")
            ).hexdigest()
            for variant in self._texts
        }
        self._filled_texts: dict[tuple[PromptVariant, int], tuple[ExampleBank, str]] = {}

    @classmethod
    def from_dir(cls, directory: str | Path) -> "PromptTemplates":
        base = Path(directory)
        texts = {}
        for variant in PromptVariant:
            texts[variant] = read_text(base / f"{variant.value}.txt", "prompt template")
        return cls(texts)

    @classmethod
    def default(cls) -> "PromptTemplates":
        return cls.from_dir(default_prompt_dir())

    def template(self, variant: PromptVariant) -> str:
        return self._texts[variant]

    def constraint_clauses(self, variant: PromptVariant) -> tuple[str, ...]:
        return constraint_clauses(self._texts[variant])

    def fingerprint(self, variant: PromptVariant) -> str:
        return self._fingerprints[variant]

    def filled(self, variant: PromptVariant, bank: ExampleBank) -> str:
        """The template for ``variant`` with every slot but ``{{chunk}}`` filled from ``bank``.

        Rendered once per variant and bank object, and kept. Only a bank that passes
        :func:`validate_bank` is kept, so a deficient one raises
        :class:`BankValidationError` on every call.
        """
        # keyed by the bank's identity: its hash walks every example. The entry holds the
        # bank, so no other bank takes its id while the entry lives
        entry = self._filled_texts.get((variant, id(bank)))
        # unlocked: threads that miss at once each render the same text
        if entry is None:
            deficiencies = validate_bank(bank, variant)
            if deficiencies:
                raise BankValidationError(deficiencies)
            entry = bank, _fill_bank_slots(self._texts[variant], bank)
            self._filled_texts[variant, id(bank)] = entry
        return entry[1]


def constraint_clauses(template_text: str) -> tuple[str, ...]:
    """Static instruction clauses of a template: paragraphs minus placeholders."""
    stripped = _PLACEHOLDER_RE.sub("", template_text)
    paragraphs = (" ".join(p.split()) for p in re.split(r"\n\s*\n", stripped))
    return tuple(p for p in paragraphs if p)


def validate_bank(bank: ExampleBank, variant: PromptVariant) -> list[str]:
    """Return the list of bank deficiencies for ``variant`` (empty when fit)."""
    deficiencies: list[str] = []
    n_pos = len(bank.positive_examples)
    if variant >= PromptVariant.ONE_SHOT:
        if not bank.ner_definition.strip():
            deficiencies.append("missing ner_definition")
        if n_pos < 1:
            deficiencies.append(f"needs at least 1 positive example (have {n_pos})")
    if variant >= PromptVariant.FEW_SHOT and n_pos < 3:
        deficiencies.append(f"needs at least 3 positive examples (have {n_pos})")
    if variant is PromptVariant.NEGATIVE_EXAMPLES:
        if not bank.negative_examples:
            deficiencies.append("needs at least 1 negative example")
        if not bank.negated_instructions:
            deficiencies.append("needs at least 1 negated instruction")
    return deficiencies


def _render_positive(example: PositiveExample) -> str:
    lines = [f"Text: {example.snippet}", "Triples:"]
    lines.extend(f"({s} | {p} | {o})" for s, p, o in example.triples)
    return "\n".join(lines)


def _render_negative(example: NegativeExample) -> str:
    s, p, o = example.triple
    return f"({s} | {p} | {o})\nThis is wrong because {example.reason}."


def _fill_bank_slots(text: str, bank: ExampleBank) -> str:
    replacements = {
        "{{definition}}": bank.ner_definition,
        "{{focus_verbs}}": ", ".join(f'"{v}"' for v in bank.focus_verbs),
        "{{example}}": _render_positive(bank.positive_examples[0])
        if bank.positive_examples
        else "",
        "{{more_examples}}": "\n\n".join(
            _render_positive(ex) for ex in bank.positive_examples[1:]
        ),
        "{{negative_examples}}": "\n\n".join(
            _render_negative(ex) for ex in bank.negative_examples
        ),
        "{{negated_instructions}}": "\n".join(
            f"- {instr}" for instr in bank.negated_instructions
        ),
    }
    for slot, value in replacements.items():
        text = text.replace(slot, value)
    return text


def build_prompt(
    variant: PromptVariant,
    bank: ExampleBank,
    chunk_text: str,
    templates: PromptTemplates | None = None,
) -> RenderedPrompt:
    """Render the prompt for one chunk.

    Pure: the same inputs always produce the same prompt. Raises
    :class:`BankValidationError` naming each missing ingredient when the bank
    cannot support the requested variant. ``{{chunk}}`` is filled last, so
    slot markers inside the chunk text stay literal.
    """
    templates = templates or PromptTemplates.default()
    return RenderedPrompt(
        variant=variant,
        text=templates.filled(variant, bank).replace("{{chunk}}", chunk_text),
        constraint_fingerprint=templates.fingerprint(variant),
    )
