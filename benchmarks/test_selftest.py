"""Self-test of the benchmark at a tiny size (one-second runs).

    python3 -m pytest -q benchmarks/test_selftest.py

Checks that every metric BENCHMARK.json names is printed with its unit,
that the unchanged program scores fail_ratio 0, and that the output checks
do catch a wrong value.  Takes about a minute.
"""

from __future__ import annotations

import itertools
import math

import pytest

import run
import run_all
import tracing
import workloads

MODULES = run.load_package()


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed_with_unit(workload, trace):
    status, output, result = run_all.run_one(workload, seed=1, seconds=1, trace=trace)
    assert status == 0, output
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = run_all.SPEC["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in spec)
    for m in spec:
        printed = result["metrics"][m["name"]]
        assert printed["unit"] == m["unit"]
        assert math.isfinite(printed["value"])
        assert f"metric {m['name']} = " in output
        if not trace:
            assert printed["value"] > 0
    if trace and workload == "sweep-grid":
        assert result["metrics"]["density.depolarize.calls_per_op"]["value"] == 6
        assert result["metrics"]["density.expectation.calls_per_op"]["value"] == 8
        assert result["metrics"]["density.dephase.calls_per_op"]["value"] == 1


def _one_request(workload) -> run.Loop:
    loop = run.Loop(workload)
    loop.step(workload.call)
    return loop


def test_perturbed_sweep_reference_fails(tmp_path):
    ctx = workloads.Context(MODULES, seed=1, out_dir=tmp_path)
    reference = workloads.load_sweep_reference()
    key = next(iter(reference))
    values = list(reference[key])
    values[1] *= 1.0 + 1e-9  # fidelity
    reference[key] = tuple(values)
    sweep = workloads.SweepGrid(ctx, reference=reference)
    assert sweep.stride == 8 and sweep.items_per_call == 121
    loop = _one_request(sweep)
    assert loop.attempted == 121
    assert loop.failed == 1
    assert "differs from the reference in ['fidelity']" in loop.messages[0]


def test_perturbed_point_reference_fails(tmp_path):
    ctx = workloads.Context(MODULES, seed=workloads.DEFAULT_SEED, out_dir=tmp_path)
    reference = workloads.load_point_reference()
    assert len(reference) == workloads.POINT_REFERENCE_SIZE
    assert _one_request(workloads.PointQueries(ctx, reference=reference)).failed == 0
    reference[1][7] = repr(float(reference[1][7]) * (1.0 + 1e-9))  # fidelity of point 1
    loop = _one_request(workloads.PointQueries(ctx, reference=reference))
    assert loop.attempted == workloads.POINTS_PER_REQUEST
    assert loop.failed == 1
    assert "point(index=1," in loop.messages[0].lower()


def test_mc_deviation_counts_as_failed():
    check = {
        "check": "yield_memoryless",
        "segment": "s",
        "formula": 1e-5,
        "estimate": 1e-5,
        "test_standard_error": 1e-7,
        "num_samples": 100,
    }
    assert workloads.check_mc_report({"checks": [check]}, 100, 1) == []
    far = dict(check, estimate=1e-5 + 6e-7)
    assert len(workloads.check_mc_report({"checks": [check, far]}, 100, 2)) == 1


def test_point_stream_is_seeded():
    names = ["a", "b", "c", "d"]
    first = list(itertools.islice(workloads.query_points(3, names), 20))
    assert first == list(itertools.islice(workloads.query_points(3, names), 20))
    assert first != list(itertools.islice(workloads.query_points(4, names), 20))
    assert [p.memory for p in first] == [i % 2 == 1 for i in range(20)]


def test_rejected_cli_flag_counts_as_failed(tmp_path):
    ctx = workloads.Context(MODULES, seed=1, out_dir=tmp_path)
    sweep = workloads.SweepGrid(ctx)
    sweep.requests = [(argv + ["--no-such-flag"], rows) for argv, rows in sweep.requests]
    loop = _one_request(sweep)
    assert loop.failed == loop.attempted == sweep.items_per_call
    assert "SystemExit(2)" in loop.messages[0]


def test_absent_targets_are_reported_not_raised():
    original = MODULES["cli"].load_config
    tracer = tracing.Tracer(["cli.no_such_function", "no_such_module.f", "cli.load_config"])
    assert tracer.absent == ["cli.no_such_function", "no_such_module.f"]
    tracer.install()
    try:
        assert MODULES["cli"].load_config is not original
    finally:
        tracer.uninstall()
    assert MODULES["cli"].load_config is original
