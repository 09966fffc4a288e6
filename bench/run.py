"""Pipeline benchmark: run one workload for a while, check its outputs, print metrics.

    python3 bench/run.py --workload mock-runall --seed 1 --seconds 35 --trace 0

Run from anywhere inside a checkout; the package is imported from ``src``.
Inputs are generated from ``--seed`` under ``.bench_work/`` (see
``workloads.py`` for why each workload exists). Every iteration is a fresh
interpreter that runs the workload's command sequence through
``triplex.cli.main`` into an empty output directory; iterations repeat until
``--seconds`` would be exceeded (at least one runs). Every iteration's outputs
are checked (``checks.py``), and a failed check counts all of that
iteration's operations as failed.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the metrics are
the end-to-end ones (``END_TO_END``), medians over the untraced iterations.
With ``--trace 1`` one more iteration runs with spans recorded around the
package's public functions, and the metrics are the per-layer ones
(``PER_LAYER``). A per-layer ``.s`` is self time summed over threads, except
``cli.<stage>.s`` (the stage's wall time) and the client's
``llmclient.complete.s`` and ``llmclient.embed.s``, which include the
transport calls they make. Layers a workload does not exercise read 0.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import (
    artifact_digests,
    backend_neutral,
    check_partial,
    check_reference,
    compare,
    load_references,
    run_stats,
)
from corpus_scaler import scale_corpus, source_files
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_REPEATS = 4
# a run, however the program behaves, must end within 180 s
RUN_LIMIT_S = 170

END_TO_END = {
    "wall_s": "s",
    "model_requests": "count",
    "ok_frac": "frac",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

_EXTRACTION_FUNCTIONS = (
    "parse_triples",
    "normalize_field",
    "refine_generic",
    "dedupe_and_cap",
    "write_run",
    "read_run",
)
_SELF_TIMED = (
    "evaluation.match.exact",
    "evaluation.match.partial",
    "evaluation.match.semantic",
    "evaluation.redundancy_score",
    "evaluation.coverage_score",
    "evaluation.distribution_divergence",
    "llmclient.chat",
    "prompting.build_prompt",
    *(f"extraction.{f}" for f in _EXTRACTION_FUNCTIONS),
    "corpus.load_corpus",
    "corpus.preprocess_index",
    "corpus.write_corpus_jsonl",
    "corpus.read_corpus_jsonl",
    "corpus.chunk_document",
    "config.load_config",
    "gold.load_gold",
    "report.heatmap_spec_from_distributions",
    "report.write_report_bundle",
)
_COUNTED = (
    "llmclient.embed",
    "llmclient.embed_one",
    "llmclient.complete",
    "llmclient.chat",
    "prompting.build_prompt",
    *(f"extraction.{f}" for f in _EXTRACTION_FUNCTIONS),
)
PER_LAYER = {
    **{f"cli.{stage}.s": "s" for stage in ("ingest", "extract", "eval", "report")},
    **{f"{name}.s": "s" for name in _SELF_TIMED},
    **{f"{name}.calls": "count" for name in _COUNTED},
    "llmclient.complete.s": "s",
    "llmclient.embed.s": "s",
    "llmclient.complete.wait_s": "s",
    "llmclient.chat.p50_ms": "ms",
    "llmclient.chat.p99_ms": "ms",
    "llmclient.retries": "count",
    "evaluation.embed.texts": "count",
    "prompting.prompt_chars": "chars",
    "extraction.run_extraction.parallelism": "ratio",
    "extraction.lines_parsed_frac": "frac",
    "extraction.duplicates_frac": "frac",
    "extraction.refined_frac": "frac",
    "corpus.documents": "count",
    "corpus.chunks": "count",
    "server.chat.requests": "count",
    "server.embed.requests": "count",
    "server.embed.items": "count",
    "server.queue_s": "s",
    "server.busy_frac": "frac",
    "trace.overhead_s": "s",
}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    # the live client prefers this variable to the config's base_url
    env.pop("TRIPLEX_ENDPOINT", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), str(BENCH), env.get("PYTHONPATH")) if p
    )
    return env


def run_child(spec: dict, work: Path, tag: str, timeout: float = RUN_LIMIT_S) -> dict:
    spec_path = work / f"{tag}.spec.json"
    result_path = work / f"{tag}.result.json"
    log_path = work / f"{tag}.log"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    with open(log_path, "wb") as log:
        code = subprocess.run(
            [sys.executable, str(BENCH / "child.py"), str(spec_path), str(result_path)],
            stdout=log,
            stderr=subprocess.STDOUT,
            env=child_env(),
            timeout=timeout,
        ).returncode
    if code != 0:
        tail = log_path.read_text(encoding="utf-8", errors="replace")[-2000:]
        raise BenchError(f"iteration {tag} exited with {code}:\n{tail}")
    return json.loads(result_path.read_text(encoding="utf-8"))


def measure_setup(config: Path, give_up: float) -> float:
    """Median time for a fresh interpreter to import ``triplex.cli`` and load ``config``."""
    argv = [
        sys.executable,
        "-c",
        "import sys, triplex.cli; triplex.cli.load_config(sys.argv[1])",
        str(config),
    ]
    times = []
    for repeat in range(SETUP_REPEATS + 1):
        started = time.perf_counter()
        subprocess.run(argv, env=child_env(), check=True, timeout=remaining(give_up))
        if repeat:  # the first one may compile bytecode
            times.append(time.perf_counter() - started)
    return statistics.median(times)


def remaining(give_up: float) -> float:
    return max(1.0, give_up - time.monotonic())


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 for no samples."""
    if not sorted_values:
        return 0.0
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Iteration:
    """One fresh-interpreter run of the workload's commands, and its checks."""

    def __init__(self, result: dict, out_dir: Path, server_stats: dict | None) -> None:
        self.result = result
        self.out_dir = out_dir
        self.server = server_stats
        self.digests = artifact_digests(out_dir)
        self.stats = run_stats(out_dir)
        self.problems = [
            f"{c['command']} exited with {c['exit']}" for c in result["commands"] if c["exit"]
        ]

    def stage_s(self, command: str) -> float:
        return next(c["s"] for c in self.result["commands"] if c["command"] == command)

    @property
    def chunks(self) -> int:
        return sum(s["chunks_processed"] for s in self.stats.values())

    @property
    def model_requests(self) -> int:
        # the fake endpoint counts retries too; the mock backend cannot retry
        if self.server is not None:
            return self.server["requests"]
        return self.result["transport_calls"]

    def operations(self) -> tuple[int, int]:
        """(attempted, failed): commands, chunks and refinement requests."""
        commands = self.result["commands"]
        attempted = len(commands)
        failed = sum(1 for c in commands if c["exit"])
        for variant, s in self.stats.items():
            attempted += s["chunks_processed"] + s["chunks_failed"]
            failed += s["chunks_failed"]
            if variant == "negative-examples":
                attempted += s["generic_flagged"]
                failed += s["refine_failures"]
        if self.problems:
            failed = attempted
        return attempted, failed


def per_layer(traced: Iteration, untraced_wall: float) -> dict[str, float]:
    trace = traced.result["trace"]
    table = trace["table"]
    counters = trace["counters"]

    def stat(name: str, key: str) -> float:
        return table.get(name, {}).get(key, 0)

    metrics = {f"{name}.s": stat(name, "self_s") for name in _SELF_TIMED}
    metrics.update({f"{name}.calls": stat(name, "calls") for name in _COUNTED})
    for stage in ("ingest", "extract", "eval", "report"):
        metrics[f"cli.{stage}.s"] = stat(f"cli.{stage}", "total_s")
    chat_ms = trace["chat_ms"]
    transport_calls = stat("llmclient.chat", "calls") + stat("llmclient.embed_one", "calls")
    stats = traced.stats.values()
    server = traced.server or {}
    negative = traced.stats.get("negative-examples", {})
    metrics.update(
        {
            "llmclient.complete.s": stat("llmclient.complete", "total_s"),
            "llmclient.embed.s": stat("llmclient.embed", "total_s"),
            "llmclient.complete.wait_s": stat("llmclient.complete", "total_s")
            - stat("llmclient.chat", "total_s"),
            "llmclient.chat.p50_ms": percentile(chat_ms, 50),
            "llmclient.chat.p99_ms": percentile(chat_ms, 99),
            "llmclient.retries": server["requests"] - transport_calls if server else 0,
            "evaluation.embed.texts": counters.get("evaluation.embed.texts", 0),
            "prompting.prompt_chars": counters.get("prompting.prompt_chars", 0),
            "extraction.run_extraction.parallelism": ratio(
                stat("extraction.run_extraction.task", "total_s"),
                stat("extraction.run_extraction", "total_s"),
            ),
            "extraction.lines_parsed_frac": ratio(
                sum(s["lines_parsed"] for s in stats), sum(s["lines_seen"] for s in stats)
            ),
            "extraction.duplicates_frac": ratio(
                sum(s["duplicates_removed"] for s in stats), sum(s["lines_parsed"] for s in stats)
            ),
            "extraction.refined_frac": ratio(
                negative.get("refined_count", 0), negative.get("generic_flagged", 0)
            ),
            "corpus.documents": _count_lines(traced.out_dir / "corpus.jsonl"),
            "corpus.chunks": ratio(traced.chunks, len(traced.stats)),
            "server.chat.requests": server.get("chat_requests", 0),
            "server.embed.requests": server.get("embed_requests", 0),
            "server.embed.items": server.get("embed_items", 0),
            "server.queue_s": server.get("queue_s", 0.0),
            "server.busy_frac": server.get("busy_frac", 0.0),
            "trace.overhead_s": traced.result["wall_s"] - untraced_wall,
        }
    )
    return metrics


def _count_lines(path: Path) -> int:
    with open(path, "rb") as handle:
        return sum(1 for line in handle if line.strip())


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def check_checkout() -> None:
    if not (SRC / "triplex" / "cli.py").is_file():
        raise BenchError(f"package source not found under {SRC}")
    try:
        source_files(ROOT)
    except FileNotFoundError as exc:
        raise BenchError(str(exc)) from None


def run(args: argparse.Namespace) -> dict:
    give_up = time.monotonic() + RUN_LIMIT_S
    check_checkout()
    workload = WORKLOADS[args.workload]
    work = WORK / f"{workload.name}-seed{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    scale_corpus(ROOT, workload.n_docs, args.seed, work / "corpus")
    server = None
    if workload.backend == "live":
        sys.path.insert(0, str(SRC))
        from fake_endpoint import FakeEndpoint

        server = FakeEndpoint().start()
    try:
        config = workload.write_config(
            work / "config.json",
            work / "corpus",
            args.seed,
            base_url=server.base_url if server else None,
        )
        setup_s = measure_setup(config, give_up)

        def iterate(tag: str, trace: bool = False, backend: str | None = None) -> Iteration:
            out_dir = work / tag
            spec = {
                "commands": workload.commands(config, out_dir, backend),
                "trace": trace,
                "spans_path": str(WORK / f"{workload.name}-seed{args.seed}.spans.jsonl.gz"),
            }
            if server and backend is None:
                server.reset()
            result = run_child(spec, work, tag, remaining(give_up))
            stats = server.snapshot() if server and backend is None else None
            return Iteration(result, out_dir, stats)

        baseline = iterate("mock-baseline", backend="mock") if server else None
        deadline = time.perf_counter() + args.seconds
        traced = iterate("traced", trace=True) if args.trace else None
        untraced: list[Iteration] = []
        longest = traced.result["wall_s"] if traced else 0.0
        while True:
            started = time.perf_counter()
            untraced.append(iterate(f"iter{len(untraced)}"))
            longest = max(longest, time.perf_counter() - started)
            if time.perf_counter() + longest > deadline:
                break
    finally:
        if server:
            server.close()

    expected = load_references().get(workload.name, {}).get(str(args.seed))
    everything = untraced + ([traced] if traced else [])
    first = untraced[0]
    for it in everything:
        it.problems += compare("differs between iterations of one seed", first.digests, it.digests)
        it.problems += check_reference(it.out_dir, expected)
        if "eval" in workload.stages:
            it.problems += check_partial(it.out_dir)
        if baseline is not None:
            it.problems += compare(
                "live output differs from mock output",
                backend_neutral(baseline.out_dir, baseline.digests),
                backend_neutral(it.out_dir, it.digests),
            )
    attempted = failed = 0
    for it in everything:
        a, f = it.operations()
        attempted += a
        failed += f
    problems = sorted({p for it in everything for p in it.problems})
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)

    walls = [it.result["wall_s"] for it in untraced]
    if traced:
        metrics = per_layer(traced, statistics.median(walls))
        units = PER_LAYER
    else:
        metrics = {
            "wall_s": statistics.median(walls),
            "model_requests": statistics.median(it.model_requests for it in untraced),
            "ok_frac": 1.0 - failed / attempted,
            "peak_rss_mb": statistics.median(it.result["peak_rss_mb"] for it in untraced),
            "setup_s": setup_s,
        }
        units = END_TO_END
    print(
        f"{workload.name} seed {args.seed}: {len(untraced)} untraced iteration(s), "
        f"output checks {'FAILED' if problems else 'passed'}"
    )
    # stage split, informational: short stages are too noisy to gate on
    for command in workload.stages:
        print(f"  {command}_s = {statistics.median(it.stage_s(command) for it in untraced):.6g} s")
    print(
        "  extract_chunks_per_s = "
        f"{statistics.median(it.chunks / it.stage_s('extract') for it in untraced):.6g} 1/s"
    )
    for name in units:
        print(f"  {name} = {metrics[name]:.6g} {units[name]}")
    shutil.rmtree(work, ignore_errors=True)
    return {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    try:
        summary = run(args)
    except (BenchError, subprocess.SubprocessError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
