"""Access to the data files bundled with the package.

Every default here is an ordinary file under ``triplex/data`` so that a user
can copy it, edit it, and point the pipeline at the edited copy instead.
"""

from __future__ import annotations

from importlib import resources
from pathlib import Path

from .artifacts import read_text

_DATA = resources.files("triplex") / "data"


def data_path(*parts: str) -> Path:
    """Return the filesystem path of a bundled data file."""
    target = _DATA.joinpath(*parts)
    return Path(str(target))


def read_term_file(path: Path) -> frozenset[str]:
    """Lowercased terms of a one-per-line file; blank and ``#`` lines skipped."""
    terms = []
    for line in read_text(path, "term file").splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            terms.append(line.lower())
    return frozenset(terms)


def default_stopwords() -> frozenset[str]:
    """Standard English stopword list, lowercased."""
    return read_term_file(data_path("stopwords.txt"))


def default_filler_terms() -> frozenset[str]:
    """Treaty boilerplate terms removed alongside stopwords."""
    return read_term_file(data_path("filler_terms.txt"))


def default_generic_terms() -> frozenset[str]:
    """Generic subject/object terms that trigger the refinement pass."""
    return read_term_file(data_path("generic_terms.txt"))


def default_prompt_dir() -> Path:
    """Directory holding the bundled prompt template files."""
    return data_path("prompts")


def default_examples_path() -> Path:
    """Path of the bundled example bank."""
    return data_path("examples.json")


def sample_gold_path() -> Path:
    """Path of the bundled sample gold set (hand-written, for development)."""
    return data_path("gold_sample.csv")
