"""Output checks on every iteration's artifacts.

* Every iteration of one seed writes the same bytes.
* A live run writes what a mock run writes on the same inputs; only the eval
  report's ``header.embedding_model`` names the backend.
* At a seed recorded in ``references.json``, the corpus cache, the run files
  and the eval report's exact and semantic blocks, redundancy, coverage and
  divergence equal the recorded digests.
* Partial-mode results are only range-checked, because a fix of the greedy
  assignment will change them on purpose.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

REFERENCES = Path(__file__).with_name("references.json")

_REFERENCED_EVAL_KEYS = ("exact", "semantic", "redundancy", "coverage", "jsd_to_gold")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _canonical(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")


def artifact_digests(out_dir: Path) -> dict[str, str]:
    """sha256 of every file the pipeline wrote, by path relative to ``out_dir``."""
    return {
        path.relative_to(out_dir).as_posix(): _sha256(path.read_bytes())
        for path in sorted(out_dir.rglob("*"))
        if path.is_file()
    }


def backend_neutral(out_dir: Path, digests: dict[str, str]) -> dict[str, str]:
    """``digests`` with the eval report's backend name left out."""
    report_path = out_dir / "eval_report.json"
    if not report_path.is_file():
        return digests
    report = json.loads(report_path.read_text(encoding="utf-8"))
    report["header"].pop("embedding_model", None)
    return {**digests, "eval_report.json": _sha256(_canonical(report))}


def reference_digests(out_dir: Path) -> dict[str, str]:
    """The digests ``references.json`` records for one seed."""
    out = {
        rel: digest
        for rel, digest in artifact_digests(out_dir).items()
        if rel == "corpus.jsonl" or (rel.startswith("runs/") and not rel.endswith(".stats.json"))
    }
    report_path = out_dir / "eval_report.json"
    if report_path.is_file():
        variants = json.loads(report_path.read_text(encoding="utf-8"))["variants"]
        kept = {
            name: {key: entry[key] for key in _REFERENCED_EVAL_KEYS}
            for name, entry in variants.items()
        }
        out["eval_report.json#referenced"] = _sha256(_canonical(kept))
    return out


def load_references() -> dict:
    if not REFERENCES.is_file():
        return {}
    return json.loads(REFERENCES.read_text(encoding="utf-8"))


def check_reference(out_dir: Path, expected: dict[str, str] | None) -> list[str]:
    if expected is None:
        return []
    return compare("differs from the recorded reference", expected, reference_digests(out_dir))


def check_partial(out_dir: Path) -> list[str]:
    """Range checks on the partial-mode block of every variant."""
    path = out_dir / "eval_report.json"
    if not path.is_file():
        return ["eval_report.json is missing"]
    report = json.loads(path.read_text(encoding="utf-8"))
    gold = report["header"]["gold_size"]
    problems = []
    for name, entry in report["variants"].items():
        partial = entry["partial"]
        n_pred = entry["n_predicted"]
        if not 0 <= partial["pairs"] <= min(n_pred, gold):
            problems.append(f"{name}: partial pairs {partial['pairs']} out of range")
        if partial["pairs"] + partial["unmatched_predicted"] != n_pred:
            problems.append(f"{name}: partial pairs and unmatched predicted do not add up")
        if partial["pairs"] + partial["unmatched_gold"] != gold:
            problems.append(f"{name}: partial pairs and unmatched gold do not add up")
        for metric in ("precision", "recall", "f1"):
            if not 0.0 <= partial[metric] <= 1.0:
                problems.append(f"{name}: partial {metric} {partial[metric]} outside [0, 1]")
    return problems


def compare(label: str, expected: dict[str, str], actual: dict[str, str]) -> list[str]:
    return [
        f"{rel}: {label}"
        for rel in sorted(set(expected) | set(actual))
        if expected.get(rel) != actual.get(rel)
    ]


def run_stats(out_dir: Path) -> dict[str, dict]:
    """The ``stats`` block of every ``runs/*.stats.json``, by variant."""
    return {
        path.name[: -len(".stats.json")]: json.loads(path.read_text(encoding="utf-8"))["stats"]
        for path in sorted((out_dir / "runs").glob("*.stats.json"))
    }
