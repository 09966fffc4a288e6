"""Regenerate the golden files under tests/golden/.

Run after an intentional behavior change, then review the diff:

    python3 tests/regen_golden.py
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from pathlib import Path

from triplex.cli import main as cli_main
from triplex.corpus import PreprocessConfig, load_corpus
from triplex.evaluation import predicate_distribution
from triplex.extraction import chunk_corpus, run_extraction, write_run
from triplex.llmclient import EndpointConfig, make_client
from triplex.prompting import PromptVariant, default_example_bank
from triplex.report import heatmap, heatmap_spec_from_distributions

TESTS = Path(__file__).parent
GOLDEN = TESTS / "golden"


def run_all(work_dir: Path, corpus_dir: Path = TESTS / "fixtures" / "corpus") -> Path:
    """Run a mock ``run-all`` over ``corpus_dir``; returns its output directory."""
    settings = {
        "corpus": {"source_dir": str(corpus_dir), "max_chunk_chars": 600},
        "output_dir": str(work_dir / "out"),
        "endpoint": {"seed": 42},
        "eval": {"seed": 42},
    }
    config = work_dir / "config.json"
    config.write_text(json.dumps(settings), encoding="utf-8")
    code = cli_main(["run-all", "--config", str(config)])
    if code != 0:
        raise RuntimeError(f"run-all exited {code}")
    return work_dir / "out"


def run_all_eval_report(work_dir: Path) -> bytes:
    """``eval_report.json`` of a mock ``run-all`` over the fixture corpus."""
    return (run_all(work_dir) / "eval_report.json").read_bytes()


def quickstart_manifest(work_dir: Path) -> str:
    """``sha256sum`` lines for the README quick start's tree: ``run-all``, then ``sample``.

    The paths start with ``out/``, so ``sha256sum -c`` checks them from ``work_dir``.
    """
    out = run_all(work_dir, TESTS.parent / "demos" / "data")
    argv = ["sample", "--variant", "negative-examples", "--config", str(work_dir / "config.json")]
    if cli_main(argv) != 0:
        raise RuntimeError("sample failed")
    names = sorted(p.relative_to(work_dir).as_posix() for p in out.rglob("*") if p.is_file())
    return "".join(
        f"{hashlib.sha256((work_dir / name).read_bytes()).hexdigest()}  {name}\n" for name in names
    )


def run_all_pinned(out: Path) -> dict[str, bytes]:
    """Every report file and the refined negative-examples run, keyed by path under ``out``."""
    paths = [*sorted((out / "report").iterdir()), out / "runs" / "negative-examples.jsonl"]
    return {path.relative_to(out).as_posix(): path.read_bytes() for path in paths}


def main() -> None:
    GOLDEN.mkdir(exist_ok=True)
    bank = default_example_bank()
    config = PreprocessConfig(max_chunk_chars=600)
    client = make_client(EndpointConfig(seed=42), backend="mock")

    # one variant over the first two fixture documents
    corpus = load_corpus(TESTS / "fixtures" / "corpus", limit=2)
    run = run_extraction(chunk_corpus(corpus, config), PromptVariant.ZERO_SHOT, bank, client)
    write_run(run, GOLDEN / "zero-shot-run.jsonl")
    print(f"zero-shot-run.jsonl: {len(run.triples)} triples, stats={run.stats}")

    # heatmap over all four variants on the full fixture corpus
    full = load_corpus(TESTS / "fixtures" / "corpus")
    full_chunks = chunk_corpus(full, config)
    distributions = {}
    for variant in PromptVariant:
        variant_run = run_extraction(full_chunks, variant, bank, client)
        distributions[variant.value] = predicate_distribution(variant_run.triples)
    spec = heatmap_spec_from_distributions(distributions, top_k=15)
    svg = heatmap(spec, title="Predicate frequency by prompt variant")
    (GOLDEN / "heatmap.svg").write_text(svg, encoding="utf-8")
    print(f"heatmap.svg: {len(spec.rows)} rows x {len(spec.columns)} columns")

    # every match mode, partial included, the report files and a refined run of a mock run-all
    with tempfile.TemporaryDirectory() as work:
        out = run_all(Path(work))
        (GOLDEN / "eval_report.json").write_bytes((out / "eval_report.json").read_bytes())
        for name, content in run_all_pinned(out).items():
            (GOLDEN / name).parent.mkdir(exist_ok=True)
            (GOLDEN / name).write_bytes(content)
    print("eval_report.json, report/, runs/negative-examples.jsonl: run-all on the fixture corpus")

    with tempfile.TemporaryDirectory() as work:
        manifest = quickstart_manifest(Path(work))
    (GOLDEN / "quickstart.sha256").write_text(manifest, encoding="utf-8", newline="")
    print(f"quickstart.sha256: {len(manifest.splitlines())} files of the README quick start")


if __name__ == "__main__":
    main()
