import json

import run
from conftest import BENCH


def test_benchmark_json_lists_the_metrics_run_prints():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    from workloads import WORKLOADS

    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_percentile_is_nearest_rank():
    values = [float(v) for v in range(1, 101)]
    assert run.percentile(values, 50) == 50.0
    assert run.percentile(values, 99) == 99.0
    assert run.percentile([5.0], 99) == 5.0
    assert run.percentile([], 50) == 0.0


def test_child_env_drops_the_endpoint_override(monkeypatch):
    monkeypatch.setenv("TRIPLEX_ENDPOINT", "http://127.0.0.1:9")
    assert "TRIPLEX_ENDPOINT" not in run.child_env()
