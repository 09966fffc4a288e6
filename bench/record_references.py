"""Record the output digests ``checks.py`` compares against, one run per seed.

    python3 bench/record_references.py --seeds 0-9

Each workload runs once per seed on the mock backend (a live run must write
the same files) and ``references.json`` gains or replaces that seed's entry.
Re-record only when a change to the program's output is intended.
"""

from __future__ import annotations

import argparse
import json
import shutil

from checks import REFERENCES, load_references, reference_digests
from corpus_scaler import scale_corpus
from run import ROOT, WORK, check_checkout, run_child
from workloads import WORKLOADS


def record(name: str, seed: int) -> dict[str, str]:
    workload = WORKLOADS[name]
    work = WORK / f"record-{name}-seed{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        scale_corpus(ROOT, workload.n_docs, seed, work / "corpus")
        config = workload.write_config(work / "config.json", work / "corpus", seed)
        result = run_child(
            {"commands": workload.commands(config, work / "out", backend="mock"), "trace": False},
            work,
            "record",
        )
        failed = [c for c in result["commands"] if c["exit"]]
        if failed:
            raise SystemExit(f"{name} seed {seed}: {failed}")
        return reference_digests(work / "out")
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", required=True, help="inclusive range, e.g. 0-9")
    args = parser.parse_args()
    low, _, high = args.seeds.partition("-")
    check_checkout()
    references = load_references()
    for name in WORKLOADS:
        for seed in range(int(low), int(high or low) + 1):
            references.setdefault(name, {})[str(seed)] = record(name, seed)
            print(f"recorded {name} seed {seed}", flush=True)
    REFERENCES.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
