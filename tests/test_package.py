"""The package namespace and the README's library example."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import triplex
from triplex import corpus, errors, evaluation, extraction, gold, llmclient, prompting, report

REPO = Path(__file__).resolve().parent.parent

# every name the package exported before its namespace was derived from the modules
EXPORTED = """
__version__ ANNOTATION_METRICS AgreementDocument AnnotationRecord ArticleUnit
AssignmentPolicy BankValidationError ConfigurationError CorpusIndex EmbeddingVector
EndpointConfig ExampleBank ExtractionError ExtractionRun GoldSet GoldTriple
GoldValidationError HeatmapSpec HttpTransport LlmClient MatchConfig MatchMode
MatchResult Metrics MockTransport NegativeExample PositiveExample PreprocessConfig
PromptTemplates PromptVariant RenderedPrompt TransportError Triple TripleCandidate
TriplexError build_prompt chunk_document coverage_score dedupe_and_cap
default_example_bank distribution_divergence f1_score flag_generic frequency_chart
heatmap heatmap_spec_from_distributions load_corpus load_example_bank load_gold
make_client match metrics_from metrics_table mock_embedding normalize_field
parse_metrics_csv parse_triples predicate_distribution preprocess preprocess_document
preprocess_index read_corpus_jsonl read_run redundancy_score refine_generic
run_extraction sample_for_annotation validate_bank write_annotation_csv
write_corpus_jsonl write_run
""".split()


def test_every_previously_exported_name_still_imports():
    assert len(EXPORTED) == 71
    namespace: dict = {}
    exec(f"from triplex import {', '.join(EXPORTED)}", namespace)
    assert set(EXPORTED) <= set(triplex.__all__)


def test_package_exports_exactly_the_module_lists():
    modules = (corpus, errors, evaluation, extraction, gold, llmclient, prompting, report)
    declared = ["__version__", *(name for module in modules for name in module.__all__)]
    assert sorted(triplex.__all__) == sorted(declared)
    for module in modules:
        for name in module.__all__:
            assert getattr(triplex, name) is getattr(module, name)


def test_readme_library_example_runs():
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    env = dict(os.environ, PYTHONPATH=str(Path(triplex.__file__).parent.parent))
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, cwd=REPO, env=env
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("Metrics(")


@pytest.mark.parametrize("demo", ["prompt_gallery.py", "pipeline_walkthrough.py"])
def test_demo_runs(demo, tmp_path):
    # the walkthrough writes its charts into a mkdtemp directory it keeps
    env = dict(
        os.environ, PYTHONPATH=str(Path(triplex.__file__).parent.parent), TMPDIR=str(tmp_path)
    )
    result = subprocess.run(
        [sys.executable, str(REPO / "demos" / demo)], capture_output=True, text=True, env=env
    )
    assert result.returncode == 0, result.stderr


def test_cli_imports_and_a_mock_run_load_no_scipy_or_requests(tmp_path):
    # the README quick-start config with the default greedy assignment spelled out;
    # certifi is left out of the check: some interpreters load it from site. Only a live
    # client loads the HTTP and TLS stack, and the report's XML escape is its own
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps(
            {
                "corpus": {"source_dir": str(REPO / "demos" / "data"), "max_chunk_chars": 600},
                "output_dir": str(tmp_path / "out"),
                "endpoint": {"seed": 42},
                "eval": {"seed": 42, "assignment": "greedy"},
            }
        ),
        encoding="utf-8",
    )
    code = f"""
import json, sys
names = ("scipy", "requests", "urllib3", "http.client", "ssl", "email.utils", "urllib.request",
         "xml.sax")
def heavy():
    return sorted(m for m in sys.modules if any(m == n or m.startswith(n + ".") for n in names))
import triplex.cli
after_import = heavy()
status = triplex.cli.main(["run-all", "--config", {str(config)!r}])
print(json.dumps({{"status": status, "after_import": after_import, "after_run": heavy()}}))
"""
    env = dict(os.environ, PYTHONPATH=str(Path(triplex.__file__).parent.parent))
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, cwd=tmp_path, env=env
    )
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout.splitlines()[-1])
    assert report == {"status": 0, "after_import": [], "after_run": []}
