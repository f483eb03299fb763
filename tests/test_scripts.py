"""Smoke tests of the scripts, each end to end on a small grid, and of the
README's library example."""

import csv
import os
import re
import subprocess
import sys
from pathlib import Path

import ghzline
from ghzline.config import data_path, load_config

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"
SEGMENTS = sorted(cfg.name for cfg in load_config(data_path()))


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
