"""Metric tables, frequency charts, heatmaps, and the report bundle."""

from __future__ import annotations

import json
import xml.etree.ElementTree as ET
from xml.sax.saxutils import escape

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triplex import report
from triplex.corpus import load_corpus
from triplex.evaluation import Metrics, PredicateDistribution, predicate_distribution
from triplex.extraction import chunk_corpus, run_extraction
from triplex.prompting import PromptVariant
from triplex.report import (
    VARIANT_ORDER,
    HeatmapSpec,
    frequency_chart,
    heatmap,
    heatmap_spec_from_distributions,
    metrics_table,
    parse_metrics_csv,
    write_report_bundle,
)


def _metrics(seed: float) -> dict[str, Metrics]:
    exact = Metrics(precision=seed, recall=seed + 0.2, f1=seed + 0.1)
    semantic = Metrics(precision=seed + 0.05, recall=seed + 0.25, f1=seed + 0.15)
    return {"exact": exact, "semantic": semantic}


def _table_results() -> dict[str, dict[str, Metrics]]:
    return {
        "zero-shot": _metrics(0.04),
        "one-shot": _metrics(0.11),
        "few-shot": _metrics(0.25),
        "negative-examples": _metrics(0.39),
    }


# ---------------------------------------------------------------------------
# metrics table
# ---------------------------------------------------------------------------


def test_metrics_table_is_six_rows_by_four_variants():
    csv_text, table_text = metrics_table(_table_results())
    lines = csv_text.strip().splitlines()
    assert lines[0] == "metric,zero-shot,one-shot,few-shot,negative-examples"
    assert len(lines) == 7  # header + 6 metric rows
    row_names = [line.split(",")[0] for line in lines[1:]]
    assert row_names == [
        "exact_precision",
        "exact_recall",
        "exact_f1",
        "semantic_precision",
        "semantic_recall",
        "semantic_f1",
    ]
    assert "Exact match" in table_text
    assert "Semantic match" in table_text
    assert "zero-shot" in table_text


def test_metrics_table_orders_variants_by_ladder_position():
    results = {name: _metrics(0.1) for name in reversed(VARIANT_ORDER)}
    csv_text, _ = metrics_table(results)
    assert csv_text.splitlines()[0] == "metric," + ",".join(VARIANT_ORDER)


def test_metrics_table_appends_unknown_variants_after_known():
    results = {"custom": _metrics(0.3), "zero-shot": _metrics(0.1)}
    csv_text, _ = metrics_table(results)
    assert csv_text.splitlines()[0] == "metric,zero-shot,custom"


def test_metrics_table_rejects_empty_results():
    with pytest.raises(ValueError):
        metrics_table({})


def test_metrics_csv_round_trip_at_two_decimals():
    original = _table_results()
    csv_text, _ = metrics_table(original)
    recovered = parse_metrics_csv(csv_text)
    assert set(recovered) == set(original)
    for variant, modes in original.items():
        for mode, metrics in modes.items():
            restored = recovered[variant][mode]
            assert restored.precision == pytest.approx(round(metrics.precision, 2))
            assert restored.recall == pytest.approx(round(metrics.recall, 2))
            assert restored.f1 == pytest.approx(round(metrics.f1, 2))


# ---------------------------------------------------------------------------
# frequency chart
# ---------------------------------------------------------------------------


def test_frequency_chart_bars_sorted_and_proportional():
    dist = PredicateDistribution(counts={"x": 2, "y": 1}, total=3)
    svg = frequency_chart(dist, top_k=20)
    assert svg.startswith("<svg ")
    assert svg.index(">x<") < svg.index(">y<")  # descending count order
    assert 'width="420"' in svg  # the top bar spans the full chart width
    assert 'width="210"' in svg  # half the count, half the width
    assert ">2<" in svg and ">1<" in svg


def test_frequency_chart_breaks_count_ties_alphabetically():
    dist = PredicateDistribution(counts={"b": 1, "a": 1}, total=2)
    svg = frequency_chart(dist, top_k=20)
    assert svg.index(">a<") < svg.index(">b<")


def test_frequency_chart_folds_tail_into_other_bar():
    counts = {f"p{i:02d}": 30 - i for i in range(25)}
    dist = PredicateDistribution(counts=counts, total=sum(counts.values()))
    svg = frequency_chart(dist, top_k=20)
    assert "other (5 predicates)" in svg
    folded_total = sum(30 - i for i in range(20, 25))
    assert f">{folded_total}<" in svg
    assert svg.count("<rect") == 22  # background + 20 bars + the fold bar


def test_frequency_chart_no_fold_bar_when_under_limit():
    dist = PredicateDistribution(counts={"x": 2, "y": 1}, total=3)
    assert "other (" not in frequency_chart(dist, top_k=20)


def test_frequency_chart_escapes_markup_in_labels():
    dist = PredicateDistribution(counts={"a<b>&c": 1}, total=1)
    svg = frequency_chart(dist, top_k=20)
    assert "a&lt;b&gt;&amp;c" in svg
    assert "a<b>&c" not in svg


# the characters XML 1.0 allows (its Char production), markup among them
_XML_TEXT = st.text(
    st.sampled_from("&<>;\t\n\r") | st.characters(
        blacklist_categories=("Cs",),
        blacklist_characters=[*map(chr, range(0x20)), "\ufffe", "\uffff"],
    )
)


@settings(max_examples=300, deadline=None)
@given(_XML_TEXT)
def test_svg_escape_writes_the_bytes_saxutils_writes_for_xml_text(text):
    assert report._escape(text) == escape(text)


# one character XML 1.0 forbids from each class: a C0 control, a lone surrogate, a noncharacter
_NOT_XML = ["\x01", "\x1f", "\ud800", "\udfff", "\ufffe", "\uffff"]


@pytest.mark.parametrize("char", _NOT_XML, ids=[f"U+{ord(c):04X}" for c in _NOT_XML])
def test_frequency_chart_and_heatmap_parse_with_a_label_xml_forbids(char):
    label = f"ex{char}ports & <more>"
    kept = "ex\ufffdports & <more>"
    chart = frequency_chart(PredicateDistribution(counts={label: 2, "signs": 1}, total=3), 20)
    spec = HeatmapSpec(rows=(label,), columns=("zero-shot",), cells=((1.0,),))
    for svg in (chart, heatmap(spec)):
        texts = [node.text for node in ET.fromstring(svg).iter("{http://www.w3.org/2000/svg}text")]
        assert kept in texts


def test_frequency_chart_rejects_empty():
    with pytest.raises(ValueError):
        frequency_chart(PredicateDistribution(counts={}, total=0), top_k=20)


def test_frequency_chart_is_deterministic():
    dist = PredicateDistribution(counts={"signed": 3, "grants": 1}, total=4)
    assert frequency_chart(dist, 20, title="t") == frequency_chart(dist, 20, title="t")


# ---------------------------------------------------------------------------
# heatmap
# ---------------------------------------------------------------------------


def test_heatmap_spec_rows_are_overall_top_predicates():
    distributions = {
        "zero-shot": PredicateDistribution(counts={"signed": 3, "grants": 1}, total=4),
        "one-shot": PredicateDistribution(counts={"signed": 1, "reduces": 2}, total=3),
    }
    spec = heatmap_spec_from_distributions(distributions, top_k=2)
    assert spec.columns == ("zero-shot", "one-shot")
    assert spec.rows == ("signed", "reduces")  # combined counts 4 and 2 beat grants' 1
    assert spec.cells == (
        (pytest.approx(3 / 4), pytest.approx(1 / 3)),
        (0.0, pytest.approx(2 / 3)),
    )
    assert spec.column_remainders == (pytest.approx(1 / 4), pytest.approx(0.0))


def test_heatmap_spec_validation():
    with pytest.raises(ValueError):
        HeatmapSpec(rows=("a",), columns=("c",), cells=())
    with pytest.raises(ValueError):
        HeatmapSpec(rows=("a",), columns=("c",), cells=((0.5, 0.5),))
    with pytest.raises(ValueError):
        HeatmapSpec(rows=("a", "b"), columns=("c",), cells=((0.7,), (0.7,)))
    with pytest.raises(ValueError, match="^heatmap requires at least one distribution$"):
        heatmap_spec_from_distributions({}, top_k=2)


def test_heatmap_svg_contains_labels_and_remainders():
    spec = HeatmapSpec(
        rows=("signed", "grants"),
        columns=("zero-shot",),
        cells=((0.75,), (0.25,)),
        column_remainders=(0.0,),
    )
    svg = heatmap(spec, title="Predicates")
    assert ">signed<" in svg and ">grants<" in svg and ">zero-shot<" in svg
    assert "other: 0.00" in svg
    assert "relative frequency: 0.00" in svg
    assert svg == heatmap(spec, title="Predicates")


def test_heatmap_matches_golden(
    bank, mock_client, small_chunks_config, corpus_dir, golden_dir
):
    chunks = chunk_corpus(load_corpus(corpus_dir), small_chunks_config)
    distributions = {}
    for variant in PromptVariant:
        run = run_extraction(chunks, variant, bank, mock_client)
        distributions[variant.value] = predicate_distribution(run.triples)
    spec = heatmap_spec_from_distributions(distributions, top_k=15)
    assert len(spec.rows) == 15
    assert spec.columns == VARIANT_ORDER
    svg = heatmap(spec, title="Predicate frequency by prompt variant")
    assert svg == (golden_dir / "heatmap.svg").read_text(encoding="utf-8")


# ---------------------------------------------------------------------------
# bundle
# ---------------------------------------------------------------------------


def _bundle_inputs():
    table = _table_results()
    distributions = {
        "zero-shot": PredicateDistribution(counts={"signed": 2, "grants": 1}, total=3),
        "one-shot": PredicateDistribution(counts={"signed": 1}, total=1),
        "few-shot": PredicateDistribution(counts={"reduces": 2}, total=2),
        "negative-examples": PredicateDistribution(counts={"signed": 1, "reduces": 1}, total=2),
    }
    spec = heatmap_spec_from_distributions(distributions, top_k=15)
    return table, distributions, spec


def test_write_report_bundle_writes_expected_files(tmp_path):
    table, distributions, spec = _bundle_inputs()
    written = write_report_bundle(
        tmp_path / "report", table, distributions, spec, frequency_top_k=20
    )
    names = sorted(p.name for p in written)
    assert names == [
        "freq_few-shot.svg",
        "freq_negative-examples.svg",
        "freq_one-shot.svg",
        "freq_zero-shot.svg",
        "heatmap.svg",
        "metrics.csv",
        "metrics.txt",
        "report.json",
    ]
    report = json.loads((tmp_path / "report" / "report.json").read_text(encoding="utf-8"))
    assert set(report) == {"metrics", "predicate_distributions", "heatmap", "files"}
    assert report["files"] == names
    assert report["metrics"]["zero-shot"]["exact"]["precision"] == pytest.approx(0.04)
    assert report["predicate_distributions"]["zero-shot"] == {"grants": 1, "signed": 2}
    parsed = parse_metrics_csv((tmp_path / "report" / "metrics.csv").read_text(encoding="utf-8"))
    assert set(parsed) == set(table)


def test_write_report_bundle_skips_empty_distributions(tmp_path):
    table, distributions, spec = _bundle_inputs()
    distributions = {
        **distributions,
        "one-shot": PredicateDistribution(counts={}, total=0),
    }
    written = write_report_bundle(
        tmp_path / "report", table, distributions, spec, frequency_top_k=20
    )
    assert "freq_one-shot.svg" not in {p.name for p in written}


def test_write_report_bundle_is_byte_deterministic(tmp_path):
    table, distributions, spec = _bundle_inputs()
    first = write_report_bundle(tmp_path / "a", table, distributions, spec, frequency_top_k=20)
    second = write_report_bundle(tmp_path / "b", table, distributions, spec, frequency_top_k=20)
    for a, b in zip(first, second):
        assert a.name == b.name
        assert a.read_bytes() == b.read_bytes()
