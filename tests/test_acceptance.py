"""Acceptance gate: eight end-to-end criteria, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Every numerical target below was computed by an independent route (series
summation, statevector circuit, or Monte Carlo) before being frozen here.
"""

import json
import math
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from ghzline import (
    NoiseParams,
    binary_entropy,
    click_prob,
    detection_prob,
    expected_coherence_near,
    expected_max_geometric,
    key_rate,
    mc_coherence_near,
    mc_expected_max,
    mc_yield_memoryless,
    qber_parity,
    qber_parity_from_expectation,
    run_pipeline,
    stabilizer_suite,
    yield_memoryless,
    yield_with_memory,
)
from ghzline.cli import main
from ghzline.config import data_path, load_config
from ghzline.sweep import SweepSpec, run_sweep
from util import (
    flip_dephase,
    make_cfg,
    random_config,
    random_density_matrix,
    series_expected_max,
    trace_reinsert_noisy_cz,
    twirl_depolarize,
)


@contextmanager
def criterion(num, title):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} FAIL  {title}")
        raise
    print(f"ACCEPTANCE {num} PASS  {title}")


@pytest.fixture(scope="module")
def bundled_configs():
    return load_config(data_path())


@pytest.fixture(scope="module")
def grid_rows(bundled_configs):
    """11x11 noise grid, both memory modes, memory rows at T2 = 2.5 and 10 s."""
    return run_sweep(bundled_configs, SweepSpec(t2_values=(2.5, 10.0)))


def round_2sf(x):
    e = math.floor(math.log10(abs(x)))
    return round(x, -e + 1)


def test_1_noiseless_correctness():
    with criterion(1, "noiseless pipeline: fidelity, outcome split, stabilizers"):
        start = time.perf_counter()
        cfg = make_cfg()
        probs = {}
        for outcome in (+1, -1):
            result = run_pipeline(cfg, outcome=outcome)
            assert abs(result.fidelity - 1.0) <= 1e-10
            probs[outcome] = result.outcome_prob
            assert len(result.stabilizer_expectations) == 8
            assert [p for p, _ in result.stabilizer_expectations] == list(
                stabilizer_suite(outcome)
            )
            for _, value in result.stabilizer_expectations:
                assert abs(value - 1.0) <= 1e-10
        assert abs(probs[+1] - 0.5) <= 1e-10
        assert abs(probs[-1] - 0.5) <= 1e-10
        assert time.perf_counter() - start < 1.0


def test_2_formula_vs_oracle():
    with criterion(2, "expected-max and yield formulas match series and sampling"):
        start = time.perf_counter()
        rng = np.random.default_rng(20260816)
        for i in range(20):
            p_a, p_c = (float(x) for x in rng.uniform(0.05, 0.95, 2))
            formula = expected_max_geometric(p_a, p_c)
            assert abs(formula - series_expected_max(p_a, p_c)) <= 1e-9
            mc = mc_expected_max(p_a, p_c, num_samples=10**6, seed=1000 + i)
            assert abs(mc.estimate - formula) <= 3.0 * mc.standard_error

        rng = np.random.default_rng(7)
        n = 10**6
        for i in range(5):
            cfg = random_config(rng, with_memory=False)
            y = yield_memoryless(cfg)
            mc = mc_yield_memoryless(cfg, num_samples=n, seed=2000 + i)
            # the formula fixes the Bernoulli variance, so test against the
            # null standard error; the sample one vanishes when successes
            # are too rare to observe
            null_stderr = math.sqrt(y * (1.0 - y) / n)
            assert abs(mc.estimate - y) <= 3.0 * null_stderr
        assert time.perf_counter() - start < 30.0


def test_3_dephasing_expectation(tmp_path):
    with criterion(3, "stored-qubit coherence formula agrees with sampling"):
        rng = np.random.default_rng(31415)
        for i in range(10):
            cfg = random_config(rng, with_memory=True)
            formula = expected_coherence_near(cfg)
            assert 0.0 < formula <= 1.0
            mc = mc_coherence_near(cfg, num_samples=10**6, seed=500 + i)
            assert abs(mc.estimate - formula) <= 3.0 * mc.standard_error

        # the CLI must produce a machine-readable agreement/deviation report
        out = tmp_path / "mc_report.json"
        code = main(["mc-check", "--samples", "100000", "--out", str(out)])
        assert code in (0, 1)
        report = json.loads(out.read_text())
        coherence = [c for c in report["checks"] if c["check"] == "coherence_near"]
        assert len(coherence) == 4
        for c in coherence:
            assert {"segment", "formula", "estimate", "standard_error",
                    "deviation", "z_score", "within_3_sigma"} <= set(c)
        assert report["num_deviations"] == sum(
            1 for c in report["checks"] if not c["within_3_sigma"]
        )


def test_4_channel_properties():
    with criterion(4, "noise channels: trace, Hermiticity, affinity, composition"):
        rng = np.random.default_rng(2718)
        for idx in range(200):
            n = 2 + idx % 3
            rho = random_density_matrix(rng, n)[None]
            q = idx % n
            q2 = (q + 1) % n
            a = float(rng.uniform(0.0, 1.0))
            lam = float(rng.uniform(0.0, 0.5))
            fail = float(rng.uniform(0.0, 1.0))

            # the channels' dense reference kernels, which the row
            # kernels of ghzline.density reproduce bit for bit
            def depolarize(s):
                return twirl_depolarize(rho, n, q, s)

            def dephase(x, s):
                return flip_dephase(x, n, q, s)

            def noisy_cz(f):
                return trace_reinsert_noisy_cz(rho, n, q, q2, f)

            for out in (depolarize(a)[0], dephase(rho, lam)[0], noisy_cz(fail)[0]):
                assert abs(np.trace(out).real - 1.0) <= 1e-12
                assert np.max(np.abs(out - out.conj().T)) <= 1e-12

            blend = (1.0 - a) * rho + a * depolarize(1.0)
            assert np.max(np.abs(depolarize(a) - blend)) <= 1e-12
            blend = (1.0 - 2.0 * lam) * rho + 2.0 * lam * dephase(rho, 0.5)
            assert np.max(np.abs(dephase(rho, lam) - blend)) <= 1e-12
            blend = (1.0 - fail) * noisy_cz(0.0) + fail * noisy_cz(1.0)
            assert np.max(np.abs(noisy_cz(fail) - blend)) <= 1e-12

            lam2 = float(rng.uniform(0.0, 0.5))
            lam12 = lam + lam2 - 2.0 * lam * lam2
            twice = dephase(dephase(rho, lam), lam2)
            assert np.max(np.abs(twice - dephase(rho, lam12))) <= 1e-12


def test_5_monotonicity(grid_rows):
    with criterion(5, "fidelity monotone in both noise axes; longer T2 never hurts"):
        fds = sorted({r.f_d for r in grid_rows})
        fgs = sorted({r.f_g for r in grid_rows})
        assert len(fds) == 11 and len(fgs) == 11
        assert len(grid_rows) == 4 * 3 * 121

        blocks = {}
        for r in grid_rows:
            assert r.error is None
            blocks.setdefault((r.segment, r.memory, r.t2_s), {})[(r.f_d, r.f_g)] = r
        assert len(blocks) == 12
        for grid in blocks.values():
            assert len(grid) == 121
            for fd_prev, fd in zip(fds, fds[1:]):
                for fg in fgs:
                    assert grid[(fd, fg)].fidelity <= grid[(fd_prev, fg)].fidelity + 1e-12
            for fg_prev, fg in zip(fgs, fgs[1:]):
                for fd in fds:
                    assert grid[(fd, fg)].fidelity <= grid[(fd, fg_prev)].fidelity + 1e-12

        segments = {r.segment for r in grid_rows}
        assert len(segments) == 4
        for segment in segments:
            slow = blocks[(segment, True, 10.0)]
            fast = blocks[(segment, True, 2.5)]
            for point, row in fast.items():
                assert slow[point].r_per_attempt >= row.r_per_attempt - 1e-15


def test_6_yield_regime(bundled_configs, tmp_path):
    targets = {
        "berlin-schaepe-koeckern": (3.6e-7, 1.3e-4, 360.0),
        "eiterfeld-schuechtern-frankfurt": (6.2e-9, 2.7e-6, 440.0),
        "erfurt-waltershausen-eiterfeld": (1.9e-7, 4.1e-6, 21.0),
        "koeckern-eulau-erfurt": (9.3e-9, 5.1e-6, 540.0),
    }
    with criterion(6, "memory multiplies the yield; fixture reproduces the table"):
        for cfg in bundled_configs:
            # the gain regime: weak outer click probabilities
            for node, params in (("A", cfg.node_a), ("C", cfg.node_c)):
                xi = click_prob(detection_prob(cfg, node), params.dark_count_prob)
                assert xi <= 0.05
            ratio = yield_with_memory(cfg) / yield_memoryless(cfg)
            assert ratio > 1.0
            gain = {}
            for eff in (0.5, 0.9):
                probe = replace(cfg, memory=replace(cfg.memory, efficiency=eff))
                gain[eff] = yield_with_memory(probe) / yield_memoryless(probe)
            assert gain[0.9] > gain[0.5]

        out = tmp_path / "yields.json"
        code = main([
            "yields",
            "--config", str(data_path("yield_regression.yaml")),
            "--format", "json",
            "--out", str(out),
        ])
        assert code == 0
        report = json.loads(out.read_text())
        assert {r["segment"] for r in report} == set(targets)
        for entry in report:
            want_y, want_yqm, want_ratio = targets[entry["segment"]]
            assert round_2sf(entry["yield"]) == pytest.approx(want_y, rel=1e-9)
            assert round_2sf(entry["yield_memory"]) == pytest.approx(want_yqm, rel=1e-9)
            assert round_2sf(entry["ratio"]) == pytest.approx(want_ratio, rel=1e-9)


def test_7_key_rate_math(grid_rows):
    with criterion(7, "entropy values, rate clamping, r <= Y, parity test identity"):
        assert binary_entropy(0.5) == 1.0
        assert abs(binary_entropy(0.11) - 0.49992) <= 1e-4
        for q_ab in (0.0, 0.1, 0.3):
            assert key_rate(1.0, 0.5, q_ab) == 0.0

        for r in grid_rows:
            assert r.r_per_attempt <= r.yield_per_attempt + 1e-15

        cfg = make_cfg(eta_b=0.8, trans_ab=0.5, trans_bc=0.4, dark_b=0.005)
        noises = [(0.0, 0.0), (0.05, 0.0), (0.0, 0.05), (0.1, 0.2), (0.3, 0.1),
                  (0.25, 0.25), (0.4, 0.0), (0.0, 0.4), (0.15, 0.35), (0.5, 0.5)]
        for fd, fg in noises:
            rho = run_pipeline(cfg, NoiseParams(fd, fg)).rho_out
            assert abs(qber_parity(rho) - qber_parity_from_expectation(rho)) <= 1e-12


def test_8_determinism(tmp_path):
    with criterion(8, "sweep files are byte-identical across runs"):
        files = []
        for tag in ("a", "b", "c"):
            out = tmp_path / f"sweep_{tag}.csv"
            code = main([
                "sweep",
                "--segment", "berlin-schaepe-koeckern",
                "--seed", "0",
                "--out", str(out),
            ])
            assert code == 0
            files.append(out.read_bytes())
        assert files[0] == files[1] == files[2]
        assert files[0].startswith(b"segment,f_D,f_G,memory,T2_s,yield,")
