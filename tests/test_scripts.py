"""Smoke tests of the scripts, each end to end on a small grid, and of the
README's library example."""

import csv
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import ghzline
from ghzline import sweep
from ghzline.config import data_path, load_config

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"
SEGMENTS = sorted(cfg.name for cfg in load_config(data_path()))
BENCH_SEGMENTS = (ROOT / "benchmarks" / "data" / "segments.yaml").read_text()


def run_script(name, *args):
    """Run a script in a fresh interpreter that imports this ghzline."""
    env = dict(os.environ)
    src = str(Path(ghzline.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, str(SCRIPTS / name), *args], env=env,
                          capture_output=True, text=True, timeout=120)


def test_heatmap_grids(tmp_path):
    done = run_script("heatmap_grids.py", "--steps", "2", "--outdir", str(tmp_path))
    assert done.returncode == 0, done.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == [f"{name}.csv" for name in SEGMENTS]
    for name in SEGMENTS:
        lines = (tmp_path / f"{name}.csv").read_text().splitlines()
        assert lines[0] == ("segment,f_D,f_G,memory,T2_s,yield,fidelity,Q_X,Q_AB,"
                            "r_per_attempt,r_per_second")
        # a 2x2 (f_D, f_G) grid in both memory modes
        assert len(lines) == 1 + 8
        assert all(line.startswith(f"{name},") for line in lines[1:])


def test_heatmap_grids_rejects_a_one_step_grid(tmp_path):
    # one step cannot span [0, 0.3]
    done = run_script("heatmap_grids.py", "--steps", "1", "--outdir", str(tmp_path / "out"))
    assert done.returncode == 2
    assert done.stderr == "error: --steps: one step needs min == max, got 0.0..0.3\n"
    assert not (tmp_path / "out").exists()


def test_heatmap_grids_refuses_an_oversized_grid(tmp_path, monkeypatch, capsys):
    # in this process, with run_sweep replaced, so that only the spec is built
    spec = importlib.util.spec_from_file_location("heatmap_grids", SCRIPTS / "heatmap_grids.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(script, "run_sweep", lambda *args: pytest.fail("the grid ran"))
    assert script.main(["--steps", "1001", "--outdir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        "error: --steps: 1002001 grid points, more than the 1000000 a sweep may hold\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name", ["../escaped", "..", "nul\0"], ids=["parent", "dotdot", "nul"])
def test_heatmap_grids_refuses_a_name_outside_outdir(tmp_path, name):
    # each segment's CSV is <outdir>/<name>.csv, so a name must be a plain file name
    config = tmp_path / "named.yaml"
    config.write_text(BENCH_SEGMENTS.replace(
        "name: berlin-schaepe-koeckern", f"name: {json.dumps(name)}", 1))
    done = run_script("heatmap_grids.py", "--config", str(config), "--steps", "2",
                      "--outdir", str(tmp_path / "out" / "grids"))
    assert done.returncode == 2
    assert done.stderr == f"error: segment name {name!r} is not a plain file name\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["named.yaml"]


@pytest.mark.parametrize("script, out", [("heatmap_grids.py", "--outdir"),
                                         ("memory_gain_scan.py", "--out")],
                         ids=["heatmap_grids", "memory_gain_scan"])
def test_scripts_refuse_an_invalid_config(tmp_path, script, out):
    config = tmp_path / "empty.yaml"
    config.write_text("segments: []\n")
    done = run_script(script, "--config", str(config), out, str(tmp_path / "out"))
    assert done.returncode == 2
    assert done.stderr == "error: invalid configuration:\n  - segments: [] should be non-empty\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["empty.yaml"]


def test_memory_gain_scan_refuses_an_underflowing_yield(tmp_path):
    # 1700 dB links and no dark counts: a valid config whose memoryless
    # yield underflows to 0, which ghzline yields refuses in the same words
    config = tmp_path / "lossy.yaml"
    config.write_text(re.sub(r"dark_count_prob: \S+}", "dark_count_prob: 0.0}", re.sub(
        r"loss_db: \S+}", "loss_db: 1700.0}", BENCH_SEGMENTS)))
    done = run_script("memory_gain_scan.py", "--config", str(config),
                      "--out", str(tmp_path / "gain.csv"))
    assert done.returncode == 2
    assert done.stderr == ("error: segment berlin-schaepe-koeckern: memoryless yield "
                           "underflows to 0, so the memory ratio is undefined\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["lossy.yaml"]


def test_memory_gain_scan(tmp_path):
    out = tmp_path / "scan" / "gain.csv"
    done = run_script("memory_gain_scan.py", "--points", "2", "--out", str(out))
    assert done.returncode == 0, done.stderr
    with out.open(newline="") as fh:
        header, *rows = list(csv.reader(fh))
    assert header == ["segment", "eta_qm", "yield", "yield_memory", "ratio"]
    # two eta_QM points for each of the four bundled segments
    assert len(rows) == 8
    assert [row[0] for row in rows] == [name for name in SEGMENTS for _ in range(2)]
    assert [float(row[1]) for row in rows[:2]] == [0.5, 1.0]


def test_readme_library_example():
    # the python block under "## Library", as a reader would paste it
    library = (ROOT / "README.md").read_text().split("\n## Library\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    printed = [line.rsplit(" ", 1)[0] for line in done.stdout.splitlines()
               if line.startswith("PauliString(")]
    assert printed == [repr(p) for p in ghzline.stabilizer_suite(+1)]


def test_heatmap_grids_refuses_a_run_of_too_many_rows(tmp_path, monkeypatch, capsys):
    # 25 points per block, under the cap; a segment's run of both memory
    # modes holds 50 rows, over it
    spec = importlib.util.spec_from_file_location("heatmap_grids", SCRIPTS / "heatmap_grids.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(sweep, "MAX_GRID_POINTS", 49)
    assert script.main(["--steps", "5", "--outdir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        "error: --steps: 25 grid points x 2 blocks = 50 rows, more than the 49 a sweep may hold\n")
    assert not (tmp_path / "out").exists()
