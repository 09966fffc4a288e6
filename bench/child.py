"""One iteration of a workload, in a fresh interpreter.

Runs each command of the sequence through ``triplex.cli.main`` and writes a
JSON result: per-command exit code and wall time, the sequence's wall time,
the transport calls made (counted by wrappers around the transports' ``chat``
and ``embed_one``, not by the program's own books), and this process's peak
RSS. With ``"trace": true`` the package's public
functions are wrapped first, and the result gains the per-span-name summary;
the raw spans go to ``spans_path``.

    python3 bench/child.py SPEC.json RESULT.json
"""

from __future__ import annotations

import gzip
import json
import resource
import sys
import threading
import time
import traceback
from pathlib import Path

import triplex.cli as cli

from tracer import Tracer, summarize

RAISED = -1


def install_tracing(tracer: Tracer) -> None:
    """Wrap each layer's public functions where their callers look them up."""
    from triplex import extraction, gold, llmclient

    for stage in ("ingest", "extract", "eval", "report"):
        tracer.patch(cli, f"cmd_{stage}", f"cli.{stage}")
    for module, layer, names in (
        (cli, "config", ("load_config",)),
        (cli, "corpus", ("load_corpus", "preprocess_index", "write_corpus_jsonl", "read_corpus_jsonl")),
        (extraction, "corpus", ("chunk_document",)),
        (cli, "extraction", ("run_extraction", "write_run", "read_run")),
        (extraction, "extraction", ("parse_triples", "refine_generic", "dedupe_and_cap", "normalize_field")),
        (gold, "extraction", ("normalize_field",)),
        (cli, "gold", ("load_gold",)),
        (cli, "evaluation", ("redundancy_score", "coverage_score", "distribution_divergence")),
        (cli, "report", ("heatmap_spec_from_distributions", "write_report_bundle")),
    ):
        for fn in names:
            tracer.patch(module, fn, f"{layer}.{fn}")
    tracer.patch(cli, "match", lambda p, g, config, embedder=None: f"evaluation.match.{config.mode.value}")
    tracer.patch(
        extraction,
        "build_prompt",
        "prompting.build_prompt",
        on_result=lambda a, k, prompt: tracer.count("prompting.prompt_chars", len(prompt.text)),
    )
    extraction.ThreadPoolExecutor = tracer.traced_pool("extraction.run_extraction.task")
    tracer.patch(llmclient.LlmClient, "complete", "llmclient.complete")
    tracer.patch(
        llmclient.LlmClient,
        "embed",
        "llmclient.embed",
        on_result=lambda a, k, vectors: tracer.count("evaluation.embed.texts", len(vectors)),
    )
    for transport in (llmclient.MockTransport, llmclient.HttpTransport):
        tracer.patch(transport, "chat", "llmclient.chat")
        tracer.patch(transport, "embed_one", "llmclient.embed_one")


def count_transport_calls() -> list[int]:
    """Wrap every transport call with a counter; returns the one-element tally."""
    from triplex import llmclient

    tally = [0]
    lock = threading.Lock()

    def counted(original):
        def wrapper(*args, **kwargs):
            with lock:
                tally[0] += 1
            return original(*args, **kwargs)

        return wrapper

    for transport in (llmclient.MockTransport, llmclient.HttpTransport):
        for attr in ("chat", "embed_one"):
            setattr(transport, attr, counted(getattr(transport, attr)))
    return tally


def write_spans(spans, path: Path) -> None:
    with gzip.open(path, "wt", encoding="utf-8") as handle:
        for span_id, parent, name, thread, start, end in spans:
            handle.write(json.dumps([span_id, parent, name, thread, start, end]) + "\n")


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    tracer = None
    if spec["trace"]:
        tracer = Tracer()
        install_tracing(tracer)
    transport_calls = count_transport_calls()
    commands = []
    started = time.perf_counter()
    for argv in spec["commands"]:
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception:  # a crash is a failed command, not a failed benchmark
            traceback.print_exc()
            code = RAISED
        commands.append({"command": argv[0], "exit": code, "s": time.perf_counter() - t0})
    wall = time.perf_counter() - started
    result = {
        "wall_s": wall,
        "commands": commands,
        "transport_calls": transport_calls[0],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        table = summarize(tracer.spans)
        chat = sorted(table.get("llmclient.chat", {}).get("durations", []))
        for entry in table.values():
            del entry["durations"]
        result["trace"] = {
            "spans": len(tracer.spans),
            "table": table,
            "counters": dict(tracer.counters),
            "chat_ms": [d * 1000.0 for d in chat],
        }
        write_spans(tracer.spans, Path(spec["spans_path"]))
    Path(sys.argv[2]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
