import hashlib
from collections import Counter

from corpus_scaler import SOURCE_DIRS, scale_corpus, source_files
from conftest import BENCH

ROOT = BENCH.parent


def digest(directory):
    h = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def test_same_seed_gives_identical_bytes(tmp_path):
    scale_corpus(ROOT, 23, 7, tmp_path / "a")
    scale_corpus(ROOT, 23, 7, tmp_path / "b")
    assert digest(tmp_path / "a") == digest(tmp_path / "b")


def test_seed_picks_the_assignment(tmp_path):
    scale_corpus(ROOT, 23, 7, tmp_path / "a")
    scale_corpus(ROOT, 23, 8, tmp_path / "b")
    assert digest(tmp_path / "a") != digest(tmp_path / "b")


def test_copies_are_balanced_tagged_clean_sources(tmp_path):
    sources = source_files(ROOT)
    assert all(p.parent.relative_to(ROOT).as_posix() in SOURCE_DIRS for p in sources)
    by_text = {src.read_text(encoding="utf-8"): src.stem for src in sources}
    copied = Counter()
    for path in scale_corpus(ROOT, 12, 3, tmp_path / "c"):
        stem, index = path.stem.rsplit("-", 1)
        text = path.read_text(encoding="utf-8")
        assert f" c{index}." in text
        # untagged, the copy is its source byte for byte
        assert by_text[text.replace(f" c{index}.", ".")] == stem
        copied[stem] += 1
    assert sum(copied.values()) == 12
    assert max(copied.values()) - min(copied.values()) <= 1
