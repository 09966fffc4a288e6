"""Deterministic corpus scaler: N copies of the in-repo agreements under new doc ids.

Only the clean agreements are used (``tests/fixtures/corpus`` and
``demos/data``); ``corpus_with_errors`` is never read, so every workload
ingests without load errors. Each source appears ``n // k`` or ``n // k + 1``
times, so the amount of text barely depends on the seed; the seed picks which
agreement each new doc id copies, and hence the order in which they appear.

Each copy tags every sentence with its index (``... to Norway c00017.``).
Identical chunks get identical mock replies, so with verbatim copies a seed's
work would rest on a few dozen random replies repeated hundreds of times
(triple counts varied by +-8% between seeds), and a reply cache could skip
nearly every request within one run. The lowercase tag adds no entity: the
mock backend and the parser see the same names as in the source.
"""

from __future__ import annotations

import random
import re
from pathlib import Path

SOURCE_DIRS = ("tests/fixtures/corpus", "demos/data")

# a sentence-final period in element text; the XML declaration's "1.0" has none
_SENTENCE_END = re.compile(r"(?<=[a-z])\.(?=[\s<])")


def source_files(root: Path) -> list[Path]:
    """The agreements a scaled corpus copies, in a fixed order."""
    files = sorted(
        (path for d in SOURCE_DIRS for path in (root / d).glob("*.xml")),
        key=lambda p: p.name,
    )
    if not files:
        raise FileNotFoundError(f"no source agreements under {root}: {SOURCE_DIRS}")
    return files


def scale_corpus(root: Path, n_docs: int, seed: int, dest: Path) -> list[Path]:
    """Write ``n_docs`` tagged agreement copies into the new directory ``dest``.

    A copy is named ``<source stem>-<index>.xml``; the numeric suffix keeps
    filename-derived party names unchanged.
    """
    sources = source_files(root)
    picks = [sources[i % len(sources)] for i in range(n_docs)]
    random.Random(seed).shuffle(picks)
    dest.mkdir(parents=True, exist_ok=False)
    contents = {src: src.read_text(encoding="utf-8") for src in sources}
    written = []
    for index, src in enumerate(picks):
        path = dest / f"{src.stem}-{index:05d}.xml"
        path.write_text(_SENTENCE_END.sub(f" c{index:05d}.", contents[src]), encoding="utf-8")
        written.append(path)
    return written
