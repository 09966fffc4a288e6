"""The benchmark's workloads: corpus size, pipeline settings and command sequence.

Why each exists:

* ``mock-runall``: ingest, extract all four variants, eval and report on the
  mock backend. Eval does almost all the work (the semantic-match cosine
  loop), so this is where vectorised scoring and embedding reuse show.
* ``mock-extract``: ingest and extract only, many small chunks, two workers.
  The CPU path of extraction under the interpreter lock: prompt render, mock
  reply, parse, normalize, refine, dedupe, write and thread-pool overhead.
* ``live-latency``: the ``mock-runall`` sequence with ``--backend live``
  against the fake endpoint. Round trips dominate and compute is small, so
  this is where request concurrency, batching, reply caching and retries show.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Workload:
    name: str
    n_docs: int
    max_chunk_chars: int
    stages: tuple[str, ...]
    backend: str = "mock"
    max_parallel_requests: int | None = None

    def commands(self, config: Path, out_dir: Path, backend: str | None = None) -> list[list[str]]:
        """The CLI argument lists of one iteration, writing under ``out_dir``."""
        commands = []
        for stage in self.stages:
            argv = [stage, "--config", str(config), "--out", str(out_dir)]
            if stage in ("extract", "eval"):
                argv += ["--backend", backend or self.backend]
            if stage == "extract":
                argv += ["--variant", "all"]
            commands.append(argv)
        return commands

    def write_config(self, path: Path, corpus_dir: Path, seed: int, base_url: str | None = None) -> Path:
        endpoint = {"seed": seed}
        if self.max_parallel_requests is not None:
            endpoint["max_parallel_requests"] = self.max_parallel_requests
        if base_url is not None:
            endpoint["base_url"] = base_url
        config = {
            "corpus": {"source_dir": str(corpus_dir), "max_chunk_chars": self.max_chunk_chars},
            "output_dir": "out",
            "endpoint": endpoint,
            "eval": {"seed": seed, "assignment": "greedy"},
        }
        path.write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")
        return path


_FULL = ("ingest", "extract", "eval", "report")

WORKLOADS = {
    w.name: w
    for w in (
        Workload("mock-runall", n_docs=100, max_chunk_chars=600, stages=_FULL),
        Workload(
            "mock-extract",
            n_docs=1000,
            max_chunk_chars=200,
            stages=("ingest", "extract"),
            max_parallel_requests=2,
        ),
        Workload(
            "live-latency",
            n_docs=20,
            max_chunk_chars=600,
            stages=_FULL,
            backend="live",
            max_parallel_requests=2,
        ),
    )
}
