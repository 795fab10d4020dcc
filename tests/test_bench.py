"""Benchmark harness: report shape and validation."""

import pytest

from effectgov import bench_governed_vs_direct
from effectgov.bench import REFERENCE_MEDIANS_MS


def test_reports_record_config_verbatim():
    governed, direct = bench_governed_vs_direct(iters=50, warmup=5)
    for report in (governed, direct):
        assert report.iterations == 50
        assert report.warmup == 5
        assert report.machine
    assert governed.scenario == "governed"
    assert direct.scenario == "direct"


def test_zero_iterations_rejected():
    with pytest.raises(ValueError, match="iterations"):
        bench_governed_vs_direct(iters=0)


def test_negative_warmup_rejected():
    with pytest.raises(ValueError, match="warmup"):
        bench_governed_vs_direct(iters=5, warmup=-1)


def test_percentiles_ordered():
    governed, direct = bench_governed_vs_direct(iters=30, warmup=3)
    for report in (governed, direct):
        assert report.p99_us >= report.median_us > 0


def test_reference_medians_present():
    assert REFERENCE_MEDIANS_MS["governed"] == 0.23
    assert REFERENCE_MEDIANS_MS["direct"] == 0.24
    assert REFERENCE_MEDIANS_MS["context_message_4096"] == 0.38


def test_report_json_shape():
    governed, _ = bench_governed_vs_direct(iters=5, warmup=1)
    obj = governed.to_json_obj()
    assert set(obj) == {
        "scenario", "iterations", "warmup", "median_us", "mean_us", "p99_us", "machine"
    }
