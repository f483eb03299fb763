"""Tests of config ingestion, the sweep driver, serialization, and the CLI."""

import ast
import contextlib
import copy
import csv
import datetime
import functools
import inspect
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import typing
import warnings
from pathlib import Path

import pytest
import yaml
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import ghzline
from ghzline import MemoryParams, McResult, cli, config, sweep
from ghzline.cli import _build_parser, _csv_cell, _parse_axis, main, mc_report, yields_report
from ghzline.config import (
    MIN_CLICK_PROB,
    MAX_NESTING,
    YAML_LOADER,
    ConfigError,
    _config_loader,
    data_path,
    load_config,
    validate_document,
)
from ghzline.sweep import (
    CSV_COLUMNS,
    ROW_COLUMNS,
    SpecError,
    SweepSpec,
    emit,
    parse_rows,
    render_csv,
    render_json,
    row_as_dict,
    run_sweep,
)
from ghzline.rates import RateReport, full_report
from ghzline.protocol import NoiseParams
from test_config import reference_non_finite
from util import make_cfg

# The config loader of an install without libyaml: the same class on
# PyYAML's pure-Python safe loader.
PURE_LOADER = _config_loader(yaml.SafeLoader)

SRC_DIR = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
# The benchmark's segments and both bundled files: valid documents to load.
LOADED_FILES = [
    Path(SRC_DIR).parent / "benchmarks" / "data" / "segments.yaml",
    data_path("network_segments.yaml"),
    data_path("yield_regression.yaml"),
]


def fresh_process(code: str) -> subprocess.CompletedProcess:
    """``code`` run in a fresh interpreter on this checkout's package."""
    env = dict(os.environ, PYTHONPATH=SRC_DIR)
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)


def run_fresh(code: str) -> str:
    """Stdout of ``code`` run in a fresh interpreter on this checkout's package."""
    done = fresh_process(code)
    done.check_returncode()
    return done.stdout


def minimal_doc(**overrides):
    """A valid one-segment document; keyword overrides patch the segment."""
    seg = {
        "name": "test-segment",
        "nodes": {
            "A": {"detector_efficiency": 0.5},
            "B": {"detector_efficiency": 0.5, "dark_count_prob": 1.0e-5},
            "C": {"detector_efficiency": 0.5},
        },
        "links": {
            "AB": {"length": 10.0, "transmission": 0.5},
            "BC": {"length": 20.0, "transmission": 0.25},
        },
        "source": {"frequency": 4.0e7},
    }
    seg.update(overrides)
    return {"segments": [seg]}


def write_doc(tmp_path, doc, name="segments.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(doc))
    return path


def _set(doc, where, value):
    """Set the value at a dotted path below the first segment."""
    *parents, key = where.split(".")
    node = doc["segments"][0]
    for part in parents:
        node = node[part]
    node[key] = value
    return doc


class TestLoadConfig:
    def test_bundled_line_loads(self):
        configs = load_config(data_path())
        assert [c.name for c in configs] == [
            "berlin-schaepe-koeckern",
            "eiterfeld-schuechtern-frankfurt",
            "erfurt-waltershausen-eiterfeld",
            "koeckern-eulau-erfurt",
        ]
        berlin = configs[0]
        assert berlin.node_a.detector_efficiency == 0.30
        assert berlin.node_b.detector_efficiency == 0.50
        assert berlin.node_b.dark_count_prob == 1.0e-5
        assert berlin.link_ab.length == 90.0
        assert berlin.link_ab.transmission == pytest.approx(10.0**-1.8, rel=1e-12)
        assert berlin.link_bc.length == 91.2
        assert berlin.source.frequency == 4.0e7
        assert berlin.memory == MemoryParams(efficiency=0.9, t2=2.5)
        assert berlin.speed_of_light == 2.0e5

    def test_minimal_document(self, tmp_path):
        (cfg,) = load_config(write_doc(tmp_path, minimal_doc()))
        assert cfg.name == "test-segment"
        assert cfg.memory is None
        assert cfg.node_a.dark_count_prob == 0.0
        assert cfg.link_bc.transmission == 0.25

    def test_memory_section_parses(self, tmp_path):
        doc = minimal_doc(memory={"efficiency": 0.8, "T2": 1.5})
        (cfg,) = load_config(write_doc(tmp_path, doc))
        assert cfg.memory == MemoryParams(efficiency=0.8, t2=1.5)

    def test_loss_db_converts(self, tmp_path):
        doc = minimal_doc()
        doc["segments"][0]["links"]["AB"] = {"length": 50.0, "loss_db": 10.0}
        (cfg,) = load_config(write_doc(tmp_path, doc))
        assert cfg.link_ab.transmission == pytest.approx(0.1, abs=1e-15)

    def test_rejects_out_of_range_transmission(self, tmp_path):
        doc = minimal_doc()
        doc["segments"][0]["links"]["AB"]["transmission"] = 1.5
        with pytest.raises(ConfigError) as err:
            load_config(write_doc(tmp_path, doc))
        assert any("segments.0.links.AB.transmission" in p for p in err.value.problems)

    def test_collects_every_violation(self, tmp_path):
        doc = minimal_doc()
        doc["segments"][0]["links"]["AB"]["transmission"] = 1.5
        doc["segments"][0]["nodes"]["A"]["detector_efficiency"] = 0.0
        with pytest.raises(ConfigError) as err:
            load_config(write_doc(tmp_path, doc))
        joined = "\n".join(err.value.problems)
        assert "segments.0.links.AB.transmission" in joined
        assert "segments.0.nodes.A.detector_efficiency" in joined
        assert len(err.value.problems) >= 2

    def test_rejects_inconsistent_loss_pair(self, tmp_path):
        doc = minimal_doc()
        doc["segments"][0]["links"]["AB"] = {
            "length": 10.0,
            "transmission": 0.5,
            "loss_db": 10.0,
        }
        with pytest.raises(ConfigError, match="disagrees"):
            load_config(write_doc(tmp_path, doc))

    @pytest.mark.parametrize("transmission, problem", [
        # 1e-20 once passed an absolute 1e-9 check and loaded as 1e-10
        (1.0e-20, "segments.0.links.AB: transmission 1e-20 disagrees with loss_db 100.0 "
                  "(implies 1e-10)"),
        (1.0e-10, None),
    ])
    def test_loss_pair_agrees_relatively(self, tmp_path, capsys, transmission, problem):
        doc = _set(minimal_doc(), "links.AB",
                   {"length": 90.0, "loss_db": 100.0, "transmission": transmission})
        code = main(["yields", "--config", str(write_doc(tmp_path, doc))])
        err = capsys.readouterr().err
        if problem is None:
            assert (code, err) == (0, "")
        else:
            assert code == 2
            assert err == f"error: invalid configuration:\n  - {problem}\n"

    def test_loss_pair_accepts_the_printed_implied_value(self, tmp_path):
        doc = _set(minimal_doc(), "links.AB",
                   {"length": 90.0, "loss_db": 18.0, "transmission": 0.6})
        with pytest.raises(ConfigError) as err:
            load_config(write_doc(tmp_path, doc))
        (problem,) = err.value.problems
        assert problem.endswith("(implies 0.0158489319)")
        doc["segments"][0]["links"]["AB"]["transmission"] = 0.0158489319
        (cfg,) = load_config(write_doc(tmp_path, doc))
        assert cfg.link_ab.transmission == 10 ** -1.8

    def test_rejects_loss_whose_transmission_underflows(self, tmp_path, capsys):
        # 10**(-loss_db / 10) is subnormal above about 3076.53 dB and 0.0
        # above about 3236.07 dB.  Dark counts keep node A's click
        # probability above MIN_CLICK_PROB at any transmission.
        doc = minimal_doc()
        doc["segments"][0]["nodes"]["A"]["dark_count_prob"] = 1.0e-5
        doc["segments"][0]["links"]["AB"] = {"length": 10.0, "loss_db": 3076.5}
        (cfg,) = load_config(write_doc(tmp_path, doc))
        assert cfg.link_ab.transmission >= sys.float_info.min
        for loss_db, implied in ((3076.6, "2.187761623949713e-308"), (3230, "1e-323"),
                                 (4000, "0.0")):
            doc["segments"][0]["links"]["AB"]["loss_db"] = loss_db
            path = write_doc(tmp_path, doc)
            with pytest.raises(ConfigError) as err:
                load_config(path)
            problem = (f"segments.0.links.AB.loss_db: implies transmission {implied}, "
                       "need >= 2.2250738585072014e-308")
            assert err.value.problems == [problem]
            assert main(["simulate", "--config", str(path)]) == 2
            assert capsys.readouterr().err == f"error: invalid configuration:\n  - {problem}\n"
        # a given subnormal transmission too, and both fields when they agree
        doc["segments"][0]["links"]["AB"] = {"length": 10.0, "transmission": 1e-323}
        with pytest.raises(ConfigError) as err:
            load_config(write_doc(tmp_path, doc))
        assert err.value.problems == [
            "segments.0.links.AB.transmission: 1e-323 is less than the minimum of "
            "2.2250738585072014e-308"]
        doc["segments"][0]["links"]["AB"]["loss_db"] = 3230
        with pytest.raises(ConfigError) as err:
            load_config(write_doc(tmp_path, doc))
        assert len(err.value.problems) == 2

    def test_rejects_outer_click_probability_below_floor(self, tmp_path, capsys):
        # with no dark counts, 3070 dB leaves a click probability of 3e-308, a
        # normal float, whose sampled attempt counts (up to about 36.7 / p)
        # once overflowed into Infinity and NaN in mc-check's JSON
        doc = yaml.load(data_path().read_text(), Loader=YAML_LOADER)
        seg = doc["segments"][0]
        seg["nodes"]["A"]["dark_count_prob"] = seg["nodes"]["C"]["dark_count_prob"] = 0
        for loss_ab, loss_bc, nodes in ((3070, 3070, "AC"), (3070, 18.24, "A"),
                                        (18.0, 3070, "C")):
            seg["links"]["AB"]["loss_db"], seg["links"]["BC"]["loss_db"] = loss_ab, loss_bc
            path = write_doc(tmp_path, {"segments": [seg]})
            problems = [f"segments.0.nodes.{node}: click probability 2.9999999999999997e-308 "
                        f"is less than the minimum of {MIN_CLICK_PROB!r}" for node in nodes]
            with pytest.raises(ConfigError) as err:
                load_config(path)
            assert err.value.problems == problems
            assert main(["mc-check", "--samples", "1000", "--config", str(path)]) == 2
            assert capsys.readouterr().err == "error: invalid configuration:\n" + "".join(
                f"  - {problem}\n" for problem in problems)

        # 3060 dB leaves 3e-307, above the floor: finite, strict JSON
        def reject(constant):
            raise ValueError(f"not strict JSON: {constant}")

        seg["links"]["AB"]["loss_db"] = seg["links"]["BC"]["loss_db"] = 3060
        out = tmp_path / "mc.json"
        assert main(["mc-check", "--samples", "1000", "--config",
                     str(write_doc(tmp_path, {"segments": [seg]})), "--out", str(out)]) == 0
        checks = json.loads(out.read_text(), parse_constant=reject)["checks"]
        assert len(checks) == 3
        assert all(math.isfinite(c[key]) for c in checks
                   for key in ("formula", "estimate", "standard_error"))

    def test_rejects_b_click_probability_with_memory_that_underflows(self, tmp_path, capsys):
        # B's detection probability with memory, detector times memory
        # efficiency, underflows to 0 with no dark count to lift its click
        # probability; simulate --memory once failed on it with no field named
        doc = yaml.load(data_path().read_text(), Loader=YAML_LOADER)
        seg = doc["segments"][0]
        seg["nodes"]["B"].update(detector_efficiency=1.0e-200, dark_count_prob=0.0)
        seg["memory"]["efficiency"] = 1.0e-200
        path = write_doc(tmp_path, {"segments": [seg]})
        problem = ("segments.0.memory.efficiency: B's click probability with memory "
                   "underflows to 0 (detector efficiency 1e-200 times memory efficiency "
                   "1e-200, no dark counts)")
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert err.value.problems == [problem]
        assert main(["simulate", "--memory", "--config", str(path)]) == 2
        assert capsys.readouterr().err == f"error: invalid configuration:\n  - {problem}\n"
        # a subnormal click probability, or a dark count, keeps the window
        # clicking, however rarely: a finite row
        for eta_b, efficiency, dark in ((1.0e-150, 1.0e-160, 0.0), (1.0e-200, 1.0e-200, 1e-9)):
            seg["nodes"]["B"].update(detector_efficiency=eta_b, dark_count_prob=dark)
            seg["memory"]["efficiency"] = efficiency
            path = write_doc(tmp_path, {"segments": [seg]})
            out = tmp_path / "simulate.json"
            assert main(["simulate", "--memory", "--config", str(path), "--format", "json",
                         "--out", str(out)]) == 0
            (row,) = json.loads(out.read_text())
            assert 0.0 <= row["yield"] < 1e-15 and math.isfinite(row["fidelity"])

    def test_rejects_duplicate_segment_names(self, tmp_path, capsys):
        doc = minimal_doc(name="berlin-schaepe-koeckern")
        doc["segments"] += [dict(doc["segments"][0], name="other"), doc["segments"][0]]
        path = write_doc(tmp_path, doc)
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert err.value.problems == [
            "segments.2.name: duplicate segment name 'berlin-schaepe-koeckern' "
            "(first at segments.0)"]
        assert main(["yields", "--config", str(path)]) == 2
        assert capsys.readouterr().err == (
            "error: invalid configuration:\n"
            "  - segments.2.name: duplicate segment name 'berlin-schaepe-koeckern' "
            "(first at segments.0)\n")

    def test_accepts_consistent_loss_pair(self, tmp_path):
        doc = minimal_doc()
        doc["segments"][0]["links"]["AB"] = {
            "length": 10.0,
            "transmission": 0.1,
            "loss_db": 10.0,
        }
        (cfg,) = load_config(write_doc(tmp_path, doc))
        assert cfg.link_ab.transmission == 0.1

    def test_rejects_missing_link_budget(self, tmp_path):
        doc = minimal_doc()
        doc["segments"][0]["links"]["AB"] = {"length": 10.0}
        with pytest.raises(ConfigError):
            load_config(write_doc(tmp_path, doc))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "absent.yaml")

    def test_undecodable_file_names_the_path(self, tmp_path):
        path = tmp_path / "latin1.yaml"
        path.write_bytes(b"segments: [\xff]\n")
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert err.value.problems == [
            f"cannot read {path}: 'utf-8' codec can't decode byte 0xff in position 11: "
            "invalid start byte"
        ]

    def test_files_are_utf8_in_any_locale(self, tmp_path):
        # Files and stdout are read and written as UTF-8 whatever the
        # locale: a non-ASCII station and segment name load, the CLI's files
        # and stdout hold the same bytes in an ASCII locale as in a UTF-8
        # one, stdout in order with print's lines, and an undecodable file
        # is a config error that names it.
        text = data_path().read_text(encoding="utf-8")
        assert "Schaepe" in text and "berlin-schaepe" in text
        cfg = tmp_path / "umlaut.yaml"
        umlaut = text.replace("Schaepe", "Schäpe").replace("berlin-schaepe", "berlin-schäpe")
        cfg.write_text(umlaut, encoding="utf-8")
        bad = tmp_path / "latin1.yaml"
        bad.write_bytes(b"segments: [\xff]\n")
        sweep = ["sweep", "--config", str(cfg), "--fd", "0", "--fg", "0"]
        yields = ["yields", "--config", str(cfg), "--format", "csv"]
        argvs = [
            yields + ["--out", "yields.csv"],
            sweep + ["--out", "sweep.csv"],
            sweep + ["--format", "json", "--out", "sweep.json"],
            ["yields", "--config", str(bad)],
            yields,
        ]
        code = (
            "from ghzline.cli import main; from ghzline.sweep import parse_rows\n"
            f"codes = [main(argv) for argv in {argvs!r}]\n"
            "rows = parse_rows('sweep.csv') + parse_rows('sweep.json')\n"
            "print(codes, ascii(sorted({r.segment for r in rows})))\n"
        )
        # an ASCII locale in which Python keeps the locale's encoding, and a
        # UTF-8 one
        locales = {
            "ascii": {"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"},
            "utf-8": {"LC_ALL": "C.UTF-8", "PYTHONUTF8": "1"},
        }
        runs = {}
        for locale, env in locales.items():
            cwd = tmp_path / locale
            cwd.mkdir()
            done = subprocess.run([sys.executable, "-c", code], cwd=cwd, capture_output=True,
                                  env=dict(os.environ, PYTHONPATH=SRC_DIR, **env), timeout=60)
            outputs = {out: (cwd / out).read_bytes()
                       for out in ("yields.csv", "sweep.csv", "sweep.json")}
            runs[locale] = (done.returncode, done.stdout, done.stderr, outputs)
        returncode, stdout, stderr, outputs = runs["ascii"]
        assert (returncode, stderr) == (0, (
            f"error: invalid configuration:\n  - cannot read {bad}: 'utf-8' codec can't decode "
            "byte 0xff in position 11: invalid start byte\n").encode())
        # stdout holds the sweeps' two print lines, then the bytes that
        # --out wrote, then the last print line
        sweep_lines = b"wrote 8 rows to sweep.csv\nwrote 8 rows to sweep.json\n"
        assert stdout == sweep_lines + outputs["yields.csv"] + (
            b"[0, 0, 0, 2, 0] ['berlin-sch\\xe4pe-koeckern', "
            b"'eiterfeld-schuechtern-frankfurt', "
            b"'erfurt-waltershausen-eiterfeld', 'koeckern-eulau-erfurt']\n")
        assert "berlin-schäpe-koeckern,".encode() in outputs["yields.csv"]
        assert "berlin-schäpe-koeckern,".encode() in outputs["sweep.csv"]
        assert runs["ascii"] == runs["utf-8"]

    def test_non_ascii_segment_selected_in_any_locale(self, tmp_path):
        # --segment picks a non-ASCII segment name in an ASCII locale, where
        # argv arrives surrogate-escaped, as it does in a UTF-8 one: the same
        # exit status and the same stdout bytes
        text = data_path().read_text(encoding="utf-8")
        cfg = tmp_path / "umlaut.yaml"
        cfg.write_text(text.replace("berlin-schaepe", "berlin-schäpe"), encoding="utf-8")
        argv = [sys.executable, "-m", "ghzline.cli", "yields", "--config", str(cfg),
                "--segment", "berlin-schäpe-koeckern"]
        locales = {
            "ascii": {"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"},
            "utf-8": {"LC_ALL": "C.UTF-8"},
        }
        runs = {}
        for locale, env in locales.items():
            done = subprocess.run(argv, capture_output=True, timeout=60,
                                  env=dict(os.environ, PYTHONPATH=SRC_DIR, **env))
            runs[locale] = (done.returncode, done.stdout, done.stderr)
        returncode, stdout, stderr = runs["ascii"]
        assert (returncode, stderr) == (0, b"")
        assert stdout.splitlines()[1].startswith("berlin-schäpe-koeckern ".encode())
        assert len(stdout.splitlines()) == 2
        assert runs["ascii"] == runs["utf-8"]

    def test_unparseable_yaml(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("segments: [unclosed\n")
        with pytest.raises(ConfigError, match="parse error"):
            load_config(path)

    def test_unparseable_yaml_without_libyaml(self, tmp_path, monkeypatch):
        monkeypatch.setattr("ghzline.config.YAML_LOADER", PURE_LOADER)
        self.test_unparseable_yaml(tmp_path)

    @pytest.mark.parametrize("name", ["network_segments.yaml", "yield_regression.yaml"])
    def test_bundled_files_load_alike_through_both_loaders(self, monkeypatch, name):
        fast = load_config(data_path(name))
        monkeypatch.setattr("ghzline.config.YAML_LOADER", PURE_LOADER)
        assert load_config(data_path(name)) == fast

    def test_every_load_reads_and_validates_the_file(self, tmp_path):
        doc = minimal_doc()
        path = write_doc(tmp_path, doc)
        load_config(path)
        doc["segments"][0]["links"]["AB"]["transmission"] = 1.5
        write_doc(tmp_path, doc)
        with pytest.raises(ConfigError, match="segments.0.links.AB.transmission"):
            load_config(path)

    @pytest.mark.parametrize(
        "value", [float("inf"), float("nan"), pytest.param(10**400, id="huge-int")]
    )
    @pytest.mark.parametrize("where", ["links.AB.length", "source.frequency", "memory.T2"])
    def test_rejects_non_finite_numbers(self, tmp_path, where, value):
        doc = _set(minimal_doc(memory={"efficiency": 0.8, "T2": 1.5}), where, value)
        with pytest.raises(ConfigError) as err:
            load_config(write_doc(tmp_path, doc))
        assert f"segments.0.{where}: must be finite" in err.value.problems

    @pytest.mark.parametrize(
        "spelling, signed", [("1.0e7", "1.0e+7"), ("1e7", "1e+7"), ("1E-3", "1.0e-3")]
    )
    def test_exponent_floats_without_sign(self, tmp_path, spelling, signed):
        text = yaml.safe_dump(minimal_doc()).replace("40000000.0", "{}")
        assert "{}" in text
        loaded = []
        for name, literal in (("bare.yaml", spelling), ("signed.yaml", signed)):
            path = tmp_path / name
            path.write_text(text.format(literal))
            loaded.append(load_config(path))
        assert loaded[0] == loaded[1]
        assert loaded[0][0].source.frequency == float(signed)

    def test_quoted_exponent_stays_a_string(self, tmp_path):
        path = tmp_path / "quoted.yaml"
        path.write_text(yaml.safe_dump(minimal_doc()).replace("40000000.0", "'1e7'"))
        with pytest.raises(ConfigError) as err:
            load_config(path)
        assert err.value.problems == ["segments.0.source.frequency: '1e7' is not of type 'number'"]

    def test_loader_adds_only_exponent_floats(self):
        text = "[1e7, -1.5E-3, .5e2, 1_000e1, 1., 12, 0x1f, 1.5, abc, '1e7', e7, 1e, ._e3, 1.0e+7]"
        for loader in (YAML_LOADER, PURE_LOADER):
            assert yaml.load(text, Loader=loader) == [
                1e7, -1.5e-3, 50.0, 1e4, 1.0, 12, 31, 1.5, "abc", "1e7", "e7", "1e", "._e3", 1e7
            ]
        # PyYAML's own loaders keep the YAML 1.1 reading
        assert yaml.safe_load("1e7") == "1e7"

    def test_huge_integer_exits_2(self, tmp_path, capsys):
        doc = _set(minimal_doc(memory={"efficiency": 0.8, "T2": 1.5}), "links.AB.length", 10**400)
        path = write_doc(tmp_path, doc)
        assert main(["simulate", "--memory", "--config", str(path)]) == 2
        assert "segments.0.links.AB.length: must be finite" in capsys.readouterr().err

    def test_integer_beyond_conversion_limit_exits_2(self, tmp_path, capsys):
        # 5000 digits exceed Python's int-string conversion limit inside the
        # YAML parser, which raises a plain ValueError
        text = yaml.safe_dump(minimal_doc())
        assert "length: 10.0" in text
        path = tmp_path / "huge.yaml"
        path.write_text(text.replace("length: 10.0", "length: " + "9" * 5000))
        assert main(["simulate", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: invalid configuration:\n  - {path}: parse error: ")
        assert "Exceeds the limit (4300 digits)" in err

    def test_validate_document_reports_root_problems(self):
        problems = validate_document({"wrong": []})
        assert problems and all("segments" in p or "<root>" in p for p in problems)

    @pytest.mark.parametrize("text", [
        "segments: &s [*s]\n",
        "segments: " + "[" * 900 + "]" * 900 + "\n",
    ], ids=["self-referential", "900-deep"])
    def test_self_referential_or_deep_document_exits_2(self, tmp_path, capsys, text):
        path = tmp_path / "loop.yaml"
        path.write_text(text)
        with pytest.raises(ConfigError) as err:
            load_config(path)
        (problem,) = err.value.problems
        assert problem.startswith(f"{path}: parse error: ")
        assert main(["yields", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: invalid configuration:\n  - {path}: parse error: "
        )

    @pytest.mark.parametrize("loader", [None, PURE_LOADER], ids=["default", "pure-python"])
    def test_nesting_bound(self, monkeypatch, loader):
        # MAX_NESTING collections pass, one more does not, in either shape,
        # with the text's count of opening characters at the depth or, by a
        # comment, past it, which the walk must then read
        if loader is not None:
            monkeypatch.setattr("ghzline.config.YAML_LOADER", loader)
        for depth in (MAX_NESTING, MAX_NESTING + 1):
            for text in ("[" * depth + "]" * depth, "- " * depth + "x"):
                for tail in ("", "\n# -"):
                    deep = config._nests_too_deeply(text + tail)
                    assert deep == (depth > MAX_NESTING), (depth, text[:3], tail)
        shallow = "segments: [" + "{a: -1}, " * MAX_NESTING + "]"
        assert not config._nests_too_deeply(shallow)
        assert not config._nests_too_deeply(shallow.replace("]", ""))  # a parse error

    @pytest.mark.parametrize("loader", [None, PURE_LOADER], ids=["default", "pure-python"])
    def test_bound_alone_decides_the_cut(self, tmp_path, monkeypatch, loader):
        # MAX_NESTING lies below the depth at which building a document
        # runs out of Python recursion, which moves with the caller's
        # stack: a document at the bound is built and reaches the schema
        # check, one a level deeper is not read
        if loader is not None:
            monkeypatch.setattr("ghzline.config.YAML_LOADER", loader)
        for depth in (MAX_NESTING, MAX_NESTING + 1):
            # the root mapping is one level, each flow sequence one more
            path = tmp_path / f"deep{depth}.yaml"
            path.write_text("segments: " + "[" * (depth - 1) + "]" * (depth - 1) + "\n")
            with pytest.raises(ConfigError) as err:
                load_config(path)
            (problem,) = err.value.problems
            if depth == MAX_NESTING:
                assert problem.startswith("segments.0: [[")
                assert problem.endswith(" is not of type 'object'")
            else:
                assert problem == f"{path}: parse error: document nests too deeply"

    @pytest.mark.parametrize("shape", ["flow", "block"])
    def test_100000_deep_document_exits_2(self, tmp_path, shape):
        # libyaml's composer, which recurses on the C stack, once crashed
        # the process on these (exit 139); the bound stops before it
        depth = 100_000
        inner = "[" * depth + "]" * depth if shape == "flow" else "\n" + "- " * depth + "x"
        path = tmp_path / "deep.yaml"
        path.write_text("segments: " + inner + "\n")
        argv = ["yields", "--config", str(path)]
        done = fresh_process(f"import sys; from ghzline.cli import main; sys.exit(main({argv!r}))")
        assert done.returncode == 2, done.stderr[-500:]
        assert done.stderr == (
            f"error: invalid configuration:\n  - {path}: parse error: document nests too deeply\n"
        )

    @pytest.mark.parametrize("text, loader", [
        ("segments: &s [*s]\n", None),
        ("segments:\n  - [unclosed\n", None),
        ("segments:\n  - [unclosed\n", PURE_LOADER),
        ("segments: &s [*s]\n", PURE_LOADER),
    ], ids=["self-referential", "unclosed", "unclosed-pure-python",
            "self-referential-pure-python"])
    def test_parse_error_names_the_file(self, tmp_path, capsys, monkeypatch, text, loader):
        # every mark line names the file, not the parser's "<unicode string>"
        if loader is not None:
            monkeypatch.setattr("ghzline.config.YAML_LOADER", loader)
        path = tmp_path / "broken.yaml"
        path.write_text(text)
        assert main(["yields", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        lines = err.splitlines()
        assert lines[0] == "error: invalid configuration:"
        assert lines[1].startswith(f"  - {path}: parse error: ")
        assert lines[2].startswith(f'  in "{path}", line ')
        marks = [line for line in lines if line.startswith("  in ")]
        assert marks and all(line.startswith(f'  in "{path}", line ') for line in marks)
        assert "<unicode string>" not in err

    @pytest.mark.parametrize("text, error", [
        ("segments: !!bool maybe\n", "KeyError: 'maybe'"),
        ("segments: !!timestamp 2001-99\n", "AttributeError: "),
        ("segments: !!int ''\n", "IndexError: "),
    ], ids=["bool", "timestamp", "int"])
    @pytest.mark.parametrize("loader", [None, PURE_LOADER], ids=["default", "pure-python"])
    def test_malformed_tagged_scalar_exits_2(self, tmp_path, capsys, monkeypatch, text, error,
                                             loader):
        # PyYAML's safe constructors raise neither a YAMLError nor a
        # ValueError on these, yet each is a parse error of the file
        if loader is not None:
            monkeypatch.setattr("ghzline.config.YAML_LOADER", loader)
        path = tmp_path / "tagged.yaml"
        path.write_text(text)
        assert main(["yields", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: invalid configuration:\n  - {path}: parse error: a tagged scalar does "
            f"not fit its tag ({error}"
        )

    def test_each_segment_is_built_once_per_load(self, monkeypatch):
        built = []
        build = config._build_segment

        def counting_build(seg, *links):
            built.append(seg["name"])
            return build(seg, *links)

        monkeypatch.setattr(config, "_build_segment", counting_build)
        configs = load_config(data_path())
        doc = yaml.load(data_path().read_text(), Loader=YAML_LOADER)
        assert len(built) == len(doc["segments"]) == 4
        assert built == [cfg.name for cfg in configs]

    @pytest.mark.parametrize("path", LOADED_FILES, ids=lambda path: path.name)
    def test_a_valid_load_leaves_no_value_to_the_finite_recursion(self, monkeypatch, path):
        # the field walk checks each number the table describes; only a
        # value of the wrong type or under an unknown key goes to _non_finite
        walked = []
        monkeypatch.setattr(config, "_non_finite", lambda node: walked.append(node) or [])
        assert load_config(path)
        assert walked == []

    @pytest.mark.parametrize("path, expected", zip(LOADED_FILES, (8, 8, 0)),
                             ids=[path.name for path in LOADED_FILES])
    def test_each_loss_is_converted_once(self, monkeypatch, path, expected):
        converted = []
        convert = config.transmission_from_db

        def counting_convert(loss_db):
            converted.append(loss_db)
            return convert(loss_db)

        monkeypatch.setattr(config, "transmission_from_db", counting_convert)
        load_config(path)
        doc = yaml.load(path.read_text(), Loader=YAML_LOADER)
        links = [seg["links"][key] for seg in doc["segments"] for key in ("AB", "BC")]
        assert converted == [link["loss_db"] for link in links if "loss_db" in link]
        assert len(converted) == expected


def _doc_paths(node, path=()):
    """Every path in a parsed document, the root's () first."""
    yield path
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _doc_paths(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _doc_paths(value, path + (i,))


# Replacement values: wrong types, None, bools where numbers belong, empty
# names, every bound of the schema (0, 1, negatives, > 1), what YAML builds
# and JSON cannot (a date, a timestamp, !!binary, !!set, !!omap or !!pairs),
# and numbers a float cannot hold.
MUTANT_VALUES = [None, True, False, "", "x", "1.0e7", [], {}, {"a": 1}, [1],
                 0, 0.0, 1, 1.0, -1, -0.5, 1.5, 2, 1e-5,
                 datetime.date(2001, 2, 3), datetime.datetime(2001, 2, 3, 4, 5, 6), b"x",
                 {"x", 1}, [("a", 1)], math.inf, math.nan, 10**400]
EXTRA_KEYS = ["zz", "aa", "extra", "B", "length", 1]


def _mutate(doc, data):
    """Apply one to four drawn mutations to ``doc``; returns the result,
    which is a replacement for a non-dict root."""
    for _ in range(data.draw(st.integers(1, 4))):
        kind = data.draw(st.sampled_from(["drop", "set", "extra", "budget", "root"]))
        if kind == "root":
            return data.draw(st.sampled_from(MUTANT_VALUES + ["segments"]))
        if kind == "budget":
            links = [p for p in _doc_paths(doc) if len(p) == 4 and p[2] == "links"]
            if not links:
                continue
            (_, i, _, key) = data.draw(st.sampled_from(links))
            link = doc["segments"][i]["links"][key]
            if not isinstance(link, dict):
                continue
            for field in ("transmission", "loss_db"):
                link.pop(field, None)
            if data.draw(st.booleans()):  # both, not neither
                link.update(transmission=0.1, loss_db=10.0)
            continue
        path = data.draw(st.sampled_from(list(_doc_paths(doc))))
        nodes = [doc]  # the root, then each node down to the one at path
        for part in path:
            nodes.append(nodes[-1][part])
        if kind == "extra" and isinstance(nodes[-1], dict):
            for key in data.draw(st.lists(st.sampled_from(EXTRA_KEYS), min_size=1, max_size=3)):
                nodes[-1][key] = 1
        elif kind == "drop" and path and isinstance(nodes[-2], dict):
            del nodes[-2][path[-1]]
        elif kind == "set" and path:
            nodes[-2][path[-1]] = copy.deepcopy(data.draw(st.sampled_from(MUTANT_VALUES)))
    return doc


@functools.cache
def _valid_docs():
    """Valid documents to mutate: the minimal one, with memory and the
    loss_db form, and both bundled files."""
    bundled = [yaml.load(data_path(name).read_text(), Loader=YAML_LOADER)
               for name in ("network_segments.yaml", "yield_regression.yaml")]
    with_memory = minimal_doc(memory={"efficiency": 0.8, "T2": 1.5})
    with_memory["segments"][0]["links"]["BC"] = {"length": 20.0, "loss_db": 6.0}
    return [minimal_doc(), with_memory] + bundled


@functools.cache
def _jsonschema_validator():
    """jsonschema's validator of the config schema, the oracle; skips the
    test where jsonschema is not installed."""
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads(data_path("config.schema.json").read_text())
    return jsonschema.Draft202012Validator(schema)


def _jsonschema_problems(doc):
    """jsonschema's messages on ``doc``, as validate_document words them."""
    errors = _jsonschema_validator().iter_errors(doc)
    return [
        f"{'.'.join(str(x) for x in err.absolute_path) or '<root>'}: {err.message}"
        for err in sorted(errors, key=lambda e: [str(x) for x in e.absolute_path])
    ]


def _schema_cases():
    """(id, document) of each boundary of config.schema.json, found by
    walking the schema down a valid document that has every record, and
    the schema's keywords and types that the walk does not feed.

    A number field takes each of its bounds, the next float on both sides
    of it, and a bool, a string and None; a string and an array take
    empty and wrong-typed values; a record drops each required field in
    turn, all of the fields of which it needs one, and gains an unknown
    key, and is replaced by a wrong type.  So an edit to a type, bound,
    required set or property set of the schema changes jsonschema's
    verdict on at least one case."""
    schema = json.loads(data_path("config.schema.json").read_text())
    annotations = {"$schema", "title", "description", "$defs"}
    fed = {"type", "required", "anyOf", "additionalProperties", "properties", "items",
           "minItems", "minLength", "minimum", "maximum", "exclusiveMinimum", "exclusiveMaximum"}
    bounds = ("minimum", "maximum", "exclusiveMinimum", "exclusiveMaximum")
    wrong = {"object": [None, []], "array": [[], {}, "x"], "string": ["", 1, None],
             "number": [True, "x", None]}
    cases, unfed = [], set()

    def edited(path, edit):
        """The valid document after edit(container, key) on its node at
        ``path``; the root is held in a one-key dict."""
        holder = {"root": minimal_doc(memory={"efficiency": 0.8, "T2": 1.5})}
        container, key = holder, "root"
        for part in path:
            container, key = container[key], part
        edit(container, key)
        return holder["root"]

    def dotted(path):
        return ".".join(map(str, path)) or "<root>"

    def walk(sub, path):
        while "$ref" in sub:
            sub = functools.reduce(dict.__getitem__, sub["$ref"][2:].split("/"), schema)
        unfed.update(set(sub) - annotations - fed)
        if sub.get("additionalProperties", False) is not False:
            unfed.add("additionalProperties")
        if sub.get("type") not in wrong:
            unfed.add(f"type {sub.get('type')!r}")
        values = list(wrong.get(sub.get("type"), [None]))
        for bound in (sub[name] for name in bounds if name in sub):
            values += [bound, math.nextafter(bound, -math.inf), math.nextafter(bound, math.inf)]
        for value in values:
            cases.append((f"{dotted(path)}={value!r}",
                          edited(path, lambda node, key: node.__setitem__(key, value))))
        if sub["type"] == "array":
            walk(sub["items"], path + (0,))
        if sub["type"] != "object":
            return
        for option in sub.get("anyOf", ()):
            unfed.update(f"anyOf {key}" for key in set(option) - {"required"})
        one_of = [name for option in sub.get("anyOf", ()) for name in option["required"]]
        for names in [[name] for name in sub["required"]] + [one_of] * bool(one_of):
            cases.append((f"{dotted(path)}-{'-'.join(names)}", edited(
                path, lambda node, key: [node[key].pop(name, None) for name in names])))
        cases.append((f"{dotted(path)}+zz", edited(
            path, lambda node, key: node[key].__setitem__("zz", 1))))
        for name, prop in sub["properties"].items():
            walk(prop, path + (name,))

    walk(schema, ())
    return cases, unfed


SCHEMA_CASES, UNFED_KEYWORDS = _schema_cases()
# What the consistency pass reports on a schema-valid document: the link
# fields' disagreement, a subnormal transmission, and an outer click
# probability below MIN_CLICK_PROB.
CROSS_CHECKS = ("disagrees with loss_db", f"is less than the minimum of {sys.float_info.min!r}",
                "click probability")


class TestSchemaValidator:
    @pytest.mark.parametrize("where, value, message", [
        ("source.frequency", "4e7", "segments.0.source.frequency: '4e7' is not of type 'number'"),
        ("nodes.A.detector_efficiency", True,
         "segments.0.nodes.A.detector_efficiency: True is not of type 'number'"),
        ("nodes.B", None, "segments.0.nodes.B: None is not of type 'object'"),
        ("name", "", "segments.0.name: '' should be non-empty"),
        ("links.AB.length", -1, "segments.0.links.AB.length: -1 is less than the minimum of 0"),
        ("links.AB.transmission", 1.5,
         "segments.0.links.AB.transmission: 1.5 is greater than the maximum of 1"),
        ("source.frequency", 0,
         "segments.0.source.frequency: 0 is less than or equal to the minimum of 0"),
        ("nodes.B.dark_count_prob", 1,
         "segments.0.nodes.B.dark_count_prob: 1 is greater than or equal to the maximum of 1"),
        ("links.BC", {"length": 2.0},
         "segments.0.links.BC: {'length': 2.0} is not valid under any of the given schemas"),
        ("source", {}, "segments.0.source: 'frequency' is a required property"),
        ("source.zz", 1,
         "segments.0.source: Additional properties are not allowed ('zz' was unexpected)"),
    ])
    def test_message_per_keyword(self, where, value, message):
        assert validate_document(_set(minimal_doc(), where, value)) == [message]

    @pytest.mark.parametrize("doc, messages", [
        ([], ["<root>: [] is not of type 'object'"]),
        ({"segments": []}, ["segments: [] should be non-empty"]),
        ({"segments": ["x"]}, ["segments.0: 'x' is not of type 'object'"]),
        ({"segments": [{}], 1: 0, "B": 0, "zz": 0}, [
            "<root>: Additional properties are not allowed (1, 'B', 'zz' were unexpected)",
            "segments.0: 'name' is a required property",
            "segments.0: 'nodes' is a required property",
            "segments.0: 'links' is a required property",
            "segments.0: 'source' is a required property",
        ]),
    ])
    def test_messages_at_the_top(self, doc, messages):
        assert validate_document(doc) == messages

    def test_order_is_keyword_order_then_path(self):
        doc = _set(minimal_doc(), "links.AB", {"length": -1, "zz": 1})
        doc["segments"] = [copy.deepcopy(doc["segments"][0]) for _ in range(11)]
        doc["segments"][2]["name"] = ""
        expected = []
        # a stable sort on the stringified path: segment 10 sorts before 2
        for i in sorted(str(i) for i in range(11)):
            expected += [
                f"segments.{i}.links.AB: {{'length': -1, 'zz': 1}} is not valid under any "
                "of the given schemas",
                f"segments.{i}.links.AB: Additional properties are not allowed ('zz' was "
                "unexpected)",
                f"segments.{i}.links.AB.length: -1 is less than the minimum of 0",
            ]
            if i == "2":
                expected.append("segments.2.name: '' should be non-empty")
        assert validate_document(doc) == expected

    @pytest.mark.parametrize("doc", [doc for _, doc in SCHEMA_CASES],
                             ids=[name for name, _ in SCHEMA_CASES])
    def test_boundaries_match_jsonschema(self, doc):
        problems = validate_document(doc)
        expected = _jsonschema_problems(doc)
        if expected:
            assert problems == expected
        else:  # a schema-valid document is only cross-checked
            assert all(any(text in p for text in CROSS_CHECKS) for p in problems), problems

    def test_boundary_cases_feed_every_keyword(self):
        # the cases above test only what they feed: a schema keyword, a
        # type or an open record that they do not would go unchecked
        assert UNFED_KEYWORDS == set()

    @settings(max_examples=200)
    @given(st.sampled_from(range(4)), st.data())
    def test_matches_jsonschema(self, which, data):
        doc = _mutate(copy.deepcopy(_valid_docs()[which]), data)
        expected = _jsonschema_problems(doc) + [
            f"{'.'.join(str(x) for x in path) or '<root>'}: must be finite"
            for path in reference_non_finite(doc)
        ]
        problems = validate_document(doc)
        if expected:
            assert problems == expected
        else:  # a schema-valid document is only cross-checked
            assert all("disagrees with loss_db" in p for p in problems)

    def test_import_leaves_jsonschema_out(self):
        code = (
            "import sys, ghzline.cli as cli\n"
            "cli.load_config(cli.data_path())\n"
            "print(sorted({'jsonschema', 'referencing', 'rpds', 'attrs'} & set(sys.modules)))\n"
        )
        assert run_fresh(code) == "[]\n"

    def test_config_paths_leave_numpy_out(self, tmp_path):
        # yields and config errors need only netmodel's closed forms
        out = tmp_path / "yields.json"
        empty = tmp_path / "empty.yaml"
        empty.write_text("segments: []\n")
        rows = tmp_path / "rows.csv"
        code = (
            "import sys, ghzline, ghzline.cli as cli, ghzline.config as config\n"
            "cli.yields_report(config.load_config(config.data_path()))\n"
            f"assert cli.main(['yields', '--format', 'json', '--out', {str(out)!r}]) == 0\n"
            f"assert cli.main(['yields', '--config', {str(empty)!r}]) == 2\n"
            f"assert cli.main(['simulate', '--config', {str(empty)!r}]) == 2\n"
            f"assert cli.main(['sweep', '--config', {str(empty)!r}, '--out', {str(rows)!r}]) == 2\n"
            "engine = {'numpy', 'ghzline.density', 'ghzline.protocol', 'ghzline.rates',\n"
            "          'ghzline.mc', 'ghzline.sweep'}\n"
            "print(sorted(engine & set(sys.modules)))\n"
        )
        assert run_fresh(code) == "[]\n"
        assert len(json.loads(out.read_text())) == 4

    def test_engine_modules_leave_numpy_random_out(self):
        # numpy.random costs about 5 MiB of RSS; only a running oracle needs it
        code = (
            "import sys, ghzline.density, ghzline.protocol, ghzline.rates, ghzline.mc\n"
            "print(sorted({'numpy', 'numpy.random'} & set(sys.modules)))\n"
        )
        assert run_fresh(code) == "['numpy']\n"

    def test_mc_check_leaves_executor_and_logging_out(self, tmp_path):
        # the oracles' worker threads come from threading alone:
        # concurrent.futures would load logging, about 0.6 MiB of RSS
        out = tmp_path / "mc.json"
        code = (
            "import sys, ghzline.cli as cli\n"
            f"assert cli.main(['mc-check', '--samples', '1000', '--out', {str(out)!r}]) == 0\n"
            "print(sorted({'concurrent.futures', 'logging'} & set(sys.modules)))\n"
        )
        assert run_fresh(code) == "[]\n"
        assert json.loads(out.read_text())["num_checks"] == 12

    def test_engine_loads_on_first_access(self):
        code = (
            "import sys, ghzline\n"
            "assert 'numpy' not in sys.modules\n"
            "from ghzline import DensityMatrix\n"
            "assert DensityMatrix is sys.modules['ghzline.density'].DensityMatrix\n"
            "assert ghzline.mc.McResult is ghzline.McResult\n"
            "assert ghzline.rates.full_report is ghzline.full_report\n"
            "assert ghzline.protocol.NoiseParams is ghzline.NoiseParams\n"
            "names = {}\n"
            "exec('from ghzline import *', names)\n"
            "print(all(names[n] is getattr(ghzline, n) for n in ghzline.__all__))\n"
        )
        assert run_fresh(code) == "True\n"


class TestPackageNamespace:
    def test_every_name_is_its_modules_object(self):
        for name in ghzline.__all__:
            obj = getattr(ghzline, name)
            assert obj.__module__.startswith("ghzline.")
            assert getattr(sys.modules[obj.__module__], name) is obj

    def test_dir_lists_every_name_and_engine_module(self):
        listed = dir(ghzline)
        assert set(ghzline.__all__) | {"density", "protocol", "rates", "mc"} <= set(listed)
        assert listed == sorted(listed)

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="module 'ghzline' has no attribute 'nonexistent'"):
            ghzline.nonexistent


class TestAnnotations:
    def test_every_cli_annotation_resolves(self):
        # cli imports the engine types its annotations name for type
        # checkers alone, so that numpy stays lazy: run that block in a copy
        # of the module's namespace and resolve every function's hints there
        tree = ast.parse(inspect.getsource(cli))
        (block,) = [node for node in tree.body if isinstance(node, ast.If)
                    and ast.unparse(node.test) == "TYPE_CHECKING"]
        namespace = dict(vars(cli))
        exec(compile(ast.Module(block.body, type_ignores=[]), cli.__file__, "exec"), namespace)
        functions = [f for _, f in inspect.getmembers(cli, inspect.isfunction)
                     if f.__module__ == cli.__name__]
        assert {"_mc_check_entry", "_format_report_text", "_sweep_spec"} <= {
            f.__name__ for f in functions}
        for fn in functions:
            typing.get_type_hints(fn, globalns=namespace)


def log_uniform(lo, hi):
    """Floats 10^e for e uniform in [lo, hi], every decade alike, and
    often one of the two ends."""
    return st.one_of(st.sampled_from([10.0**lo, 10.0**hi]),
                     st.floats(lo, hi).map(lambda e: 10.0**e))


@st.composite
def boundary_documents(draw):
    """One-segment documents across many decades of every magnitude.

    Each outer window's efficiency times transmission is drawn as one
    product from 1 down to the click floor, then split between the two;
    the link gives its transmission or its loss in dB."""
    def node(efficiency):
        raw = {"detector_efficiency": efficiency}
        dark = draw(st.one_of(st.none(), st.just(0.0), log_uniform(-300.0, -0.001)))
        if dark is not None:
            raw["dark_count_prob"] = dark
        return raw

    def outer():
        """A node and the log10 transmission of its link."""
        product = draw(st.floats(math.log10(MIN_CLICK_PROB), 0.0))
        share = draw(st.floats(0.0, 1.0))
        return node(10.0 ** (product * share)), product * (1.0 - share)

    def link(exponent):
        raw = {"length": draw(st.one_of(st.just(0.0), log_uniform(-300.0, 300.0)))}
        if draw(st.booleans()):
            raw["loss_db"] = -10.0 * exponent
        else:
            raw["transmission"] = 10.0**exponent
        return raw

    (a, ab), (c, bc) = outer(), outer()
    b = node(draw(st.one_of(st.just(1.0), log_uniform(-300.0, 0.0))))
    seg = {
        "name": "edge-segment",
        "nodes": {"A": a, "B": b, "C": c},
        "links": {"AB": link(ab), "BC": link(bc)},
        "source": {"frequency": draw(log_uniform(-300.0, 300.0))},
    }
    if draw(st.booleans()):
        seg["memory"] = {"efficiency": draw(log_uniform(-300.0, 0.0)),
                         "T2": draw(log_uniform(-300.0, 300.0))}
    if draw(st.booleans()):
        seg["speed_of_light"] = draw(log_uniform(-300.0, 300.0))
    return {"segments": [seg]}


def strict_json(text):
    """The parsed document, or ValueError on NaN or an infinity."""
    def reject(constant):
        raise ValueError(f"non-finite constant {constant}")
    return json.loads(text, parse_constant=reject)


class TestBoundaryProperty:
    """Every document that validates gives finite numbers in strict JSON,
    or fails with exit status 2 and the segment named on stderr; never a
    traceback, NaN or infinity.  mc-check may also exit 1, with strict
    finite JSON, when a check deviates, and sweep when a block fails, with
    the error on each of its rows."""

    # Fields that are null by design: the T2 of a memory-off row, and the
    # memory columns of a segment without a memory.
    NULLABLE = {"T2_s", "yield_memory", "ratio"}

    def run(self, path, *argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*argv, "--config", str(path)])
        return code, out.getvalue(), err.getvalue()

    # more than the profile's examples: an edge needs several fields at
    # their ends at once
    @settings(max_examples=100)
    @given(doc=boundary_documents(), seed=st.integers(0, 2**32 - 1))
    def test_finite_json_or_a_named_failure(self, doc, seed):
        assume(not validate_document(doc))
        has_memory = "memory" in doc["segments"][0]
        with tempfile.TemporaryDirectory() as tmp:
            path = write_doc(Path(tmp), doc)
            for argv in (["yields"], ["simulate"], ["simulate", "--memory"]):
                code, out, err = self.run(path, *argv, "--format", "json")
                if code == 2:
                    assert "edge-segment" in err, (argv, err)
                    continue
                assert code == 0, (argv, err)
                assert err == ""
                for row in strict_json(out):
                    for key, value in row.items():
                        if value is None:
                            assert key in self.NULLABLE, (argv, key)
                            assert key == "T2_s" or not has_memory, (argv, key)
                        elif not isinstance(value, (str, bool)):
                            assert math.isfinite(value), (argv, key, value)
            # a block that cannot be evaluated is a result too: exit 1, with
            # the error on each of its rows
            rows_path = Path(tmp) / "rows.json"
            code, out, err = self.run(path, "sweep", "--fd", "0:0.3:2", "--fg", "0:0.3:2",
                                      "--format", "json", "--out", str(rows_path))
            if code == 2:
                assert "edge-segment" in err, err
            else:
                assert code in (0, 1) and err == "", (code, err)
                rows = strict_json(rows_path.read_text())
                assert (code == 1) == any("error" in row for row in rows)
                for row in rows:
                    for key, value in row.items():
                        if value is None:
                            assert "error" in row or key == "T2_s" and not row["memory"], row
                        elif not isinstance(value, (str, bool)):
                            assert math.isfinite(value), (key, row)
            # a deviation is a result, not a failure: exit 1 reports it
            code, out, err = self.run(path, "mc-check", "--samples", "1000", "--seed", str(seed))
            if code == 2:
                assert "edge-segment" in err, err
                return
            assert code in (0, 1), err
            report = strict_json(out)
            assert (code == 1) == (report["num_deviations"] > 0), err
            assert (err == "") == (code == 0), err
            assert report["num_checks"] == len(report["checks"]) == 2 + has_memory
            for check in report["checks"]:
                for key, value in check.items():
                    if value is None:
                        # a deterministic estimator has no z-score
                        assert key == "z_score" and check["test_standard_error"] == 0.0, check
                    elif not isinstance(value, (str, bool)):
                        assert math.isfinite(value), (key, check)


class TestSweepSpec:
    def test_defaults_are_valid(self):
        spec = SweepSpec()
        assert spec.fd_range == (0.0, 0.3, 11)
        assert spec.memory_modes == ("off", "on")

    def test_grid_holds_at_most_max_grid_points(self):
        # only the specs are built, never their grids
        assert sweep.MAX_GRID_POINTS == 10**6
        SweepSpec(fd_range=(0.0, 0.3, 1000), fg_range=(0.0, 0.3, 1000))
        SweepSpec(fd_range=(0.0, 0.3, 10**6), fg_range=(0.1, 0.1, 1))
        for fd_range, fg_range, points in (
            ((0.0, 0.3, 1000), (0.0, 0.3, 1001), 1001000),
            ((0.0, 0.3, 10**6 + 1), (0.1, 0.1, 1), 1000001),
            ((0.1, 0.1, 1), (0.0, 0.3, 10**6 + 1), 1000001),
        ):
            with pytest.raises(SpecError) as info:
                SweepSpec(fd_range=fd_range, fg_range=fg_range)
            assert info.value.field == "fd_range x fg_range"
            assert info.value.problem == (
                f"{points} grid points, more than the 1000000 a sweep may hold")

    @pytest.mark.parametrize("kwargs", [
        {"fd_range": (-0.1, 0.3, 5)},
        {"fd_range": (0.4, 0.3, 5)},
        {"fg_range": (0.0, 1.5, 5)},
        {"fg_range": (0.0, 0.3, 0)},
        {"memory_modes": ()},
        {"memory_modes": ("off", "off")},
        {"memory_modes": ("sometimes",)},
        {"t2_values": (1.0, -2.0)},
        {"fd_range": (0.0, 0.3, 1)},
        {"fd_range": (0.0, 0.3, 2.5)},
        {"fg_range": (0.0, 0.3, True)},
        {"fd_range": (0.0, 0.3, float("nan"))},
        {"t2_values": (1.0,), "memory_modes": ("off",)},
    ])
    def test_rejects_bad_spec(self, kwargs):
        with pytest.raises(SpecError) as info:
            SweepSpec(**kwargs)
        field = next(iter(kwargs))  # the first key is the field at fault
        assert info.value.field == field
        assert str(info.value) == f"{field}: {info.value.problem}"


def raw_configs():
    """Hand-built segments across the dataclasses' whole accepted ranges,
    each magnitude drawn log-uniformly: far past what a config file may
    hold (MIN_CLICK_PROB), so that only the engine's own checks stand
    between them and a row."""
    unit, positive = log_uniform(-323.0, 0.0), log_uniform(-323.0, 308.0)
    dark = st.one_of(st.just(0.0), log_uniform(-323.0, -1e-16))
    length = st.one_of(st.just(0.0), positive)
    return st.builds(
        make_cfg, eta_a=unit, eta_b=unit, eta_c=unit, dark_a=dark, dark_b=dark, dark_c=dark,
        trans_ab=unit, trans_bc=unit, len_ab=length, len_bc=length, frequency=positive,
        memory=st.builds(MemoryParams, unit, positive), speed_of_light=positive,
    )


class TestRunSweep:
    METRICS = ("yield_per_attempt", "fidelity", "q_x", "q_ab", "r_per_attempt", "r_per_second")

    def test_single_point(self):
        spec = SweepSpec(fd_range=(0.0, 0.0, 1), fg_range=(0.0, 0.0, 1),
                         memory_modes=("off",))
        (row,) = run_sweep([make_cfg()], spec)
        assert row.segment == "test-segment"
        assert row.f_d == 0.0 and row.f_g == 0.0
        assert not row.memory and row.t2_s is None
        assert row.fidelity == pytest.approx(1.0, abs=1e-10)
        assert row.yield_per_attempt == pytest.approx(1.0, abs=1e-12)
        assert row.error is None

    def test_default_grid_size_and_order(self):
        cfg = make_cfg(memory=MemoryParams(0.9, 2.5))
        rows = run_sweep([cfg], SweepSpec())
        assert len(rows) == 2 * 11 * 11
        assert all(not r.memory for r in rows[:121])
        assert all(r.memory for r in rows[121:])
        # f_D is the slower axis within a block
        assert [r.f_g for r in rows[:11]] == pytest.approx([0.03 * i for i in range(11)])
        assert all(r.f_d == 0.0 for r in rows[:11])
        assert rows[11].f_d == pytest.approx(0.03)
        assert all(r.t2_s == 2.5 for r in rows[121:])

    def test_t2_values_add_blocks(self):
        cfg = make_cfg(memory=MemoryParams(0.9, 2.5))
        spec = SweepSpec(fd_range=(0.0, 0.1, 2), fg_range=(0.0, 0.1, 2),
                         t2_values=(10.0, 2.5))
        rows = run_sweep([cfg], spec)
        # off block, then T2=2.5 block, then T2=10 block
        assert len(rows) == 3 * 4
        assert [r.t2_s for r in rows] == [None] * 4 + [2.5] * 4 + [10.0] * 4

    def test_segments_sorted_by_name(self):
        rows = run_sweep(
            [make_cfg(name="zeta"), make_cfg(name="alpha")],
            SweepSpec(fd_range=(0.0, 0.0, 1), fg_range=(0.0, 0.0, 1),
                      memory_modes=("off",)),
        )
        assert [r.segment for r in rows] == ["alpha", "zeta"]

    def test_matches_direct_report(self):
        cfg = make_cfg(eta_b=0.5, trans_ab=0.3, trans_bc=0.4,
                       memory=MemoryParams(0.9, 2.5))
        spec = SweepSpec(fd_range=(0.1, 0.1, 1), fg_range=(0.2, 0.2, 1),
                         memory_modes=("on",))
        (row,) = run_sweep([cfg], spec)
        rep = full_report(cfg, NoiseParams(0.1, 0.2), use_memory=True)
        assert row.yield_per_attempt == rep.yield_per_attempt
        assert row.fidelity == rep.fidelity
        assert row.q_x == rep.q_x
        assert row.q_ab == rep.q_ab
        assert row.r_per_attempt == rep.r_per_attempt
        assert row.r_per_second == rep.r_per_second

    def test_memory_rows_without_memory_fail_soft(self):
        # the memory-on block fails as a whole: each of its points gets a NaN
        # row with the block's error text, and the memory-off block is kept
        spec = SweepSpec(fd_range=(0.0, 0.1, 2), fg_range=(0.0, 0.2, 2))
        rows = run_sweep([make_cfg()], spec)
        points = [(0.0, 0.0), (0.0, 0.2), (0.1, 0.0), (0.1, 0.2)]
        assert [(r.f_d, r.f_g, r.memory, r.t2_s) for r in rows] == (
            [(fd, fg, False, None) for fd, fg in points] + [(fd, fg, True, None) for fd, fg in points]
        )
        assert [r.error for r in rows] == (
            [None] * 4 + ["ValueError: segment test-segment has no memory parameters"] * 4
        )
        assert rows[1].fidelity == full_report(make_cfg(), NoiseParams(0.0, 0.2)).fidelity
        for row in rows[4:]:
            assert all(math.isnan(getattr(row, field)) for field in self.METRICS)
        # a failed T2 block keeps its T2 on every row
        t2_rows = run_sweep([make_cfg()], SweepSpec(fd_range=(0.0, 0.1, 2), fg_range=(0.0, 0.2, 2),
                                                    memory_modes=("on",), t2_values=(0.5,)))
        assert [(r.t2_s, r.error) for r in t2_rows] == [(0.5, rows[4].error)] * 4

    def test_zero_outer_click_probabilities_fail_soft(self):
        # both outer click probabilities underflow to 0, which MIN_CLICK_PROB
        # keeps out of config files: the memory-on block fails as a whole
        cfg = make_cfg(eta_a=1e-200, eta_c=1e-200, trans_ab=1e-200, trans_bc=1e-200,
                       memory=MemoryParams(0.9, 1.0))
        error = "outer click probabilities must be > 0, got 0.0 near and 0.0 far"
        rows = run_sweep([cfg], SweepSpec(fd_range=(0.1, 0.1, 1), fg_range=(0.1, 0.1, 1)))
        assert [r.memory for r in rows] == [False, True]
        assert rows[1].error == f"ValueError: {error}"
        assert all(math.isnan(getattr(rows[1], field)) for field in self.METRICS)
        with pytest.raises(ValueError) as err:
            full_report(cfg, NoiseParams(0.1, 0.1), use_memory=True)
        assert str(err.value) == error

    @given(cfg=raw_configs())
    def test_every_row_is_finite_or_carries_an_error(self, cfg):
        # pyproject's error::RuntimeWarning filter makes a numpy overflow or
        # invalid value raise here, and run_sweep lets all but ValueError out
        rows = run_sweep([cfg], SweepSpec(fd_range=(0.0, 1.0, 2), fg_range=(0.0, 1.0, 2)))
        assert [r.memory for r in rows] == [False] * 4 + [True] * 4
        for row in rows:
            assert row.error or all(math.isfinite(getattr(row, f)) for f in self.METRICS), row

    def test_block_rows_equal_single_point_reports(self):
        # both memory blocks hold 16 rows, evaluated as one stack, then 72
        # rows, evaluated as chunks of 32, 32 and 8; each row must be the
        # exact report of its point evaluated alone
        cfg = make_cfg(eta_b=0.5, trans_ab=0.3, trans_bc=0.4, dark_b=0.002,
                       memory=MemoryParams(0.9, 0.05))
        small = run_sweep([cfg], SweepSpec(fd_range=(0.0, 0.3, 4), fg_range=(0.0, 0.3, 4)))
        assert [r.memory for r in small] == [False] * 16 + [True] * 16
        large = run_sweep([cfg], SweepSpec(fd_range=(0.0, 0.3, 9), fg_range=(0.0, 0.3, 8)))
        assert [r.memory for r in large] == [False] * 72 + [True] * 72
        for row in small + large:
            rep = full_report(cfg, NoiseParams(row.f_d, row.f_g), use_memory=row.memory)
            assert row.error is None
            assert row.yield_per_attempt == rep.yield_per_attempt
            assert row.fidelity == rep.fidelity
            assert row.q_x == rep.q_x
            assert row.q_ab == rep.q_ab
            assert row.r_per_attempt == rep.r_per_attempt
            assert row.r_per_second == rep.r_per_second

    def test_engine_bug_propagates(self, monkeypatch):
        # only ValueError marks a point as failed; any other exception is a
        # program fault and must not turn into NaN rows
        def broken(*args, **kwargs):
            raise TypeError("engine bug")

        monkeypatch.setattr("ghzline.sweep.rate_reports", broken)
        spec = SweepSpec(fd_range=(0.0, 0.1, 2), fg_range=(0.0, 0.0, 1))
        with pytest.raises(TypeError, match="engine bug"):
            run_sweep([make_cfg()], spec)


def writer_render_csv(rows):
    """The earlier renderer, kept as the reference: csv.writer over the
    _csv_cell text of every cell."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in rows:
        writer.writerow([_csv_cell(getattr(r, field)) for _, field in ROW_COLUMNS])
    return buf.getvalue()


csv_floats = st.one_of(
    st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0, 0.0, 5e-324,
                     2.2250738585072009e-308, 1.0 / 3.0]),
    st.floats(),
)
csv_rows = st.builds(
    RateReport,
    segment=st.text(st.one_of(st.sampled_from(',"\n\r'), st.characters())),
    f_d=csv_floats, f_g=csv_floats,
    memory=st.booleans(),
    t2_s=st.one_of(st.none(), csv_floats),
    yield_per_attempt=csv_floats, fidelity=csv_floats, q_x=csv_floats, q_ab=csv_floats,
    r_per_attempt=csv_floats, r_per_second=csv_floats,
)


class TestRendering:
    def make_row(self, **overrides):
        base = dict(segment="s", f_d=0.0, f_g=0.0, memory=False, t2_s=None,
                    yield_per_attempt=1.0, fidelity=1.0, q_x=0.0, q_ab=0.0,
                    r_per_attempt=1.0, r_per_second=4.0e7)
        base.update(overrides)
        return RateReport(**base)

    def test_header_is_pinned(self):
        header = render_csv([]).splitlines()[0]
        assert header == "segment,f_D,f_G,memory,T2_s,yield,fidelity,Q_X,Q_AB,r_per_attempt,r_per_second"
        assert tuple(header.split(",")) == CSV_COLUMNS

    def test_empty_rows_render_header_only(self):
        assert render_csv([]) == ",".join(CSV_COLUMNS) + "\n"

    def test_one_row_renders_two_lines(self):
        text = render_csv([self.make_row()])
        lines = text.splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("s,0,0,false,,1,1,0,0,1,40000000")

    def test_seventeen_digit_floats(self):
        text = render_csv([self.make_row(yield_per_attempt=1.0 / 3.0)])
        assert "0.33333333333333331" in text

    def test_memory_row_renders_flag_and_t2(self):
        text = render_csv([self.make_row(memory=True, t2_s=2.5)])
        assert ",true,2.5," in text

    def test_json_rendering(self):
        rows = [self.make_row(), self.make_row(fidelity=float("nan"),
                                               error="ValueError: boom")]
        parsed = json.loads(render_json(rows))
        assert len(parsed) == 2
        assert list(parsed[0].keys()) == list(CSV_COLUMNS)
        assert parsed[0]["fidelity"] == 1.0
        assert "error" not in parsed[0]
        assert parsed[1]["fidelity"] is None
        assert parsed[1]["error"] == "ValueError: boom"

    def test_row_as_dict_uses_column_names(self):
        d = row_as_dict(self.make_row(memory=True, t2_s=2.5))
        assert d["T2_s"] == 2.5 and d["memory"] is True and d["yield"] == 1.0

    def test_csv_round_trip(self, tmp_path):
        rows = run_sweep(
            [make_cfg(eta_b=0.5, trans_ab=0.3, trans_bc=0.4,
                      memory=MemoryParams(0.9, 2.5))],
            SweepSpec(fd_range=(0.0, 0.3, 2), fg_range=(0.0, 0.3, 2),
                      t2_values=(2.5, 0.01)),
        )
        path = emit(rows, "csv", tmp_path / "rows.csv")
        assert parse_rows(path) == rows
        # each column holds its own field, written out here independently
        # of the table the renderer and the parser share
        with path.open(newline="") as fh:
            cells = list(csv.DictReader(fh))
        assert len(cells) == len(rows)
        for d, row in zip(cells, rows):
            assert d["segment"] == row.segment
            assert d["memory"] == ("true" if row.memory else "false")
            assert (None if d["T2_s"] == "" else float(d["T2_s"])) == row.t2_s
            assert [float(d[c]) for c in ("f_D", "f_G", "yield", "fidelity", "Q_X",
                                          "Q_AB", "r_per_attempt", "r_per_second")] == [
                row.f_d, row.f_g, row.yield_per_attempt, row.fidelity, row.q_x,
                row.q_ab, row.r_per_attempt, row.r_per_second]

    @given(st.lists(csv_rows, max_size=6), st.data())
    def test_csv_matches_writer_reference(self, rows, data):
        assert RateReport._fields == tuple(field for _, field in ROW_COLUMNS) + ("error",)

        def fresh(value):
            """An equal value in a distinct object (bools and None are singletons)."""
            if isinstance(value, str):
                return (value + ".")[:-1]
            return float(repr(value)) if isinstance(value, float) else value

        # render_csv reuses the text of the segment, memory, T2 and yield
        # cells while consecutive rows hold the very same objects: follow a
        # row with one that keeps all four objects (a sweep block's next
        # row), with one that differs in a single cell, and with an equal
        # row of distinct objects
        variants = [
            lambda r: r._replace(f_d=data.draw(csv_floats), fidelity=data.draw(csv_floats)),
            lambda r: r._replace(memory=not r.memory),
            lambda r: r._replace(t2_s=None if r.t2_s is not None else data.draw(csv_floats)),
            lambda r: r._replace(yield_per_attempt=data.draw(
                st.sampled_from([0.0, -0.0, float("nan")]))),
            lambda r: RateReport(*map(fresh, r)),
        ]
        runs = []
        for row in rows:
            runs.append(row)
            for _ in range(data.draw(st.integers(0, 4))):
                runs.append(data.draw(st.sampled_from(variants))(runs[-1]))
        # segment names repeat across blocks, as in a sweep with several modes
        runs += [data.draw(st.sampled_from(runs)) for _ in range(len(runs) // 2)]
        assert render_csv(runs) == writer_render_csv(runs)

    def test_axis_cells_follow_identity_not_value(self):
        shared = 0.1
        equal = [float(repr(0.1)) for _ in range(2)]
        assert equal[0] == equal[1] and equal[0] is not equal[1]
        zero, negative_zero = 0.0, -0.0
        cases = [
            # rows sharing one f_D object, as a sweep block's rows do
            ([self.make_row(f_d=shared, f_g=fg) for fg in (zero, 0.3)],
             ["s,0.10000000000000001,0,", "s,0.10000000000000001,0.29999999999999999,"]),
            # equal f_D and f_G values in distinct objects
            ([self.make_row(f_d=x, f_g=x) for x in equal],
             ["s,0.10000000000000001,0.10000000000000001,"] * 2),
            # 0.0 == -0.0, but their cells differ
            ([self.make_row(f_d=zero, f_g=negative_zero),
              self.make_row(f_d=negative_zero, f_g=zero),
              self.make_row(f_d=zero, f_g=negative_zero)],
             ["s,0,-0,", "s,-0,0,", "s,0,-0,"]),
        ]
        for rows, starts in cases:
            text = render_csv(rows)
            assert text == writer_render_csv(rows)
            lines = text.splitlines()[1:]
            assert [line[:len(start)] for line, start in zip(lines, starts)] == starts
            assert len(lines) == len(starts)

    def test_quoted_segment_round_trips(self, tmp_path):
        rows = [self.make_row(segment='odd, name "q"', memory=memory, t2_s=t2, q_x=1.0 / 3.0)
                for memory, t2 in ((False, None), (True, 2.5))]
        path = emit(rows, "csv", tmp_path / "rows.csv")
        assert path.read_text().splitlines()[1].startswith('"odd, name ""q""",0,0,false,,')
        assert parse_rows(path) == rows

    def test_json_round_trip_keeps_errors(self, tmp_path):
        rows = run_sweep(
            [make_cfg()],
            SweepSpec(fd_range=(0.0, 0.0, 1), fg_range=(0.0, 0.0, 1)),
        )
        assert rows[1].error is not None
        path = emit(rows, "json", tmp_path / "rows.json")
        back = parse_rows(path)
        assert back[0] == rows[0]
        assert back[1].error == rows[1].error
        assert math.isnan(back[1].fidelity)
        assert [row_as_dict(r) for r in back] == [row_as_dict(r) for r in rows]
        assert render_json(back) == path.read_text()

    def test_parse_rows_rejects_foreign_csv(self, tmp_path):
        path = tmp_path / "other.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError, match="header"):
            parse_rows(path)

    def test_emit_rejects_unknown_format(self, tmp_path):
        with pytest.raises(ValueError, match="format"):
            emit([], "xml", tmp_path / "rows.xml")


class TestYieldsReport:
    def test_memoryless_segment_has_no_ratio(self):
        (entry,) = yields_report([make_cfg()])
        assert entry["segment"] == "test-segment"
        assert entry["yield"] == pytest.approx(1.0, abs=1e-12)
        assert entry["yield_memory"] is None
        assert entry["ratio"] is None

    def test_underflowing_yield_has_no_ratio(self, tmp_path, capsys):
        doc = minimal_doc(name="far", memory={"efficiency": 0.9, "T2": 1.0})
        for key in ("AB", "BC"):
            doc["segments"][0]["links"][key] = {"length": 10.0, "loss_db": 3000}
        path = write_doc(tmp_path, doc)
        message = "segment far: memoryless yield underflows to 0, so the memory ratio is undefined"
        with pytest.raises(ValueError) as err:
            yields_report(load_config(path))
        assert str(err.value) == message
        assert main(["yields", "--config", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_bundled_segments_all_gain_from_memory(self):
        report = yields_report(load_config(data_path()))
        assert len(report) == 4
        assert [r["segment"] for r in report] == sorted(r["segment"] for r in report)
        for r in report:
            assert r["ratio"] == pytest.approx(r["yield_memory"] / r["yield"], rel=1e-12)
            assert r["ratio"] > 1.0


class TestMcReport:
    def test_structure_and_determinism(self):
        cfg = make_cfg(eta_b=0.5, trans_ab=0.3, trans_bc=0.4,
                       memory=MemoryParams(0.9, 0.01))
        report = mc_report([cfg], num_samples=20000, seed=3)
        assert report["num_samples"] == 20000
        assert report["seed"] == 3
        assert report["num_checks"] == 3
        assert [c["check"] for c in report["checks"]] == [
            "expected_max_outer",
            "yield_memoryless",
            "coherence_near",
        ]
        for c in report["checks"]:
            assert set(c) == {
                "check", "segment", "formula", "estimate", "standard_error",
                "test_standard_error", "num_samples", "seed", "deviation",
                "z_score", "within_3_sigma",
            }
            assert c["segment"] == "test-segment"
        again = mc_report([cfg], num_samples=20000, seed=3)
        assert again == report

    def test_memoryless_segment_gets_two_checks(self):
        report = mc_report([make_cfg()], num_samples=2000, seed=0)
        assert report["num_checks"] == 2
        assert report["num_deviations"] == 0

    def test_deterministic_estimators_pass_exactly(self):
        report = mc_report([make_cfg()], num_samples=2000, seed=0)
        for c in report["checks"]:
            assert c["within_3_sigma"]
            assert abs(c["deviation"]) <= 1e-12


class TestParseAxis:
    def test_single_value(self):
        assert _parse_axis("0.1") == (0.1, 0.1, 1)

    def test_full_range(self):
        assert _parse_axis("0:0.3:11") == (0.0, 0.3, 11)

    @pytest.mark.parametrize("bad", ["1:2", "a", "1:2:3:4", "0:x:5"])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            _parse_axis(bad)


# sweep axis ends: [0, 1], drawn often at 0, 1 and the least subnormal
axis_ends = st.sampled_from([0.0, 1.0, 5e-324]) | st.floats(0.0, 1.0)


class TestMain:
    def test_simulate_text_report(self, capsys):
        assert main(["simulate", "--segment", "berlin-schaepe-koeckern"]) == 0
        out = capsys.readouterr().out
        assert "berlin-schaepe-koeckern" in out
        assert "yield per attempt" in out
        assert "key rate / second" in out

    def test_simulate_json_to_file(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(["simulate", "--fd", "0.05", "--fg", "0.05", "--memory",
                     "--format", "json", "--out", str(out)])
        assert code == 0
        rows = json.loads(out.read_text())
        assert len(rows) == 4
        assert all(r["memory"] for r in rows)
        assert all(r["T2_s"] == 2.5 for r in rows)
        assert all(r["f_D"] == 0.05 for r in rows)

    def test_simulate_unknown_segment(self, capsys):
        assert main(["simulate", "--segment", "nowhere"]) == 2
        assert "no segment named" in capsys.readouterr().err

    def test_simulate_t2_without_memory(self, tmp_path, capsys):
        # --t2 applies to memory-on rows only, as in sweep, and is refused
        # without --memory
        path = write_doc(tmp_path, minimal_doc())
        out = tmp_path / "report.json"
        code = main(["simulate", "--config", str(path), "--t2", "0.5",
                     "--format", "json", "--out", str(out)])
        assert code == 2
        assert "--t2: needs memory-on rows" in capsys.readouterr().err
        assert not out.exists()
        code = main(["simulate", "--config", str(path), "--memory", "--t2", "0.5",
                     "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "test-segment" in err and "memory" in err
        assert not out.exists()

    def test_simulate_json_is_a_one_point_sweep(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(["simulate", "--fd", "0.05", "--fg", "0.1", "--memory", "--t2", "10",
                     "--format", "json", "--out", str(out)])
        assert code == 0
        spec = SweepSpec(fd_range=(0.05, 0.05, 1), fg_range=(0.1, 0.1, 1),
                         memory_modes=("on",), t2_values=(10.0,))
        assert out.read_text() == render_json(run_sweep(load_config(data_path()), spec))

    @given(
        fd_axis=st.lists(axis_ends, min_size=2, max_size=2).map(sorted),
        fg_axis=st.lists(axis_ends, min_size=2, max_size=2).map(sorted),
        fd_end=st.integers(0, 1), fg_end=st.integers(0, 1),
    )
    def test_simulate_equals_the_corner_of_a_2x2_sweep(self, fd_axis, fg_axis, fd_end, fg_end):
        # simulate runs one point on Python floats, a 2x2 sweep runs each
        # block on the numpy stack; np.linspace gives the axis ends exactly
        fd, fg = fd_axis[fd_end], fg_axis[fg_end]
        with tempfile.TemporaryDirectory() as tmp:
            grid, point = Path(tmp) / "grid.json", Path(tmp) / "point.json"
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(["sweep", "--fd", "{!r}:{!r}:2".format(*fd_axis),
                             "--fg", "{!r}:{!r}:2".format(*fg_axis),
                             "--format", "json", "--out", str(grid)]) == 0
            corners = {(r["segment"], r["memory"]): r for r in json.loads(grid.read_text())
                       if r["f_D"] == fd and r["f_G"] == fg}
            assert len(corners) == 8  # every bundled segment in both memory modes
            for memory in ([], ["--memory"]):
                assert main(["simulate", "--fd", repr(fd), "--fg", repr(fg), *memory,
                             "--format", "json", "--out", str(point)]) == 0
                rows = json.loads(point.read_text())
                assert len(rows) == 4
                assert rows == [corners[r["segment"], r["memory"]] for r in rows]

    def test_simulate_keeps_file_order(self, tmp_path):
        doc = minimal_doc(name="zeta")
        doc["segments"].append(dict(doc["segments"][0], name="alpha"))
        path = write_doc(tmp_path, doc)
        out = tmp_path / "report.json"
        code = main(["simulate", "--config", str(path), "--format", "json", "--out", str(out)])
        assert code == 0
        assert [r["segment"] for r in json.loads(out.read_text())] == ["zeta", "alpha"]

    def test_invalid_config_exits_2(self, tmp_path, capsys):
        doc = minimal_doc()
        doc["segments"][0]["links"]["AB"]["transmission"] = 1.5
        path = write_doc(tmp_path, doc)
        assert main(["simulate", "--config", str(path)]) == 2
        assert "segments.0.links.AB.transmission" in capsys.readouterr().err

    def test_sweep_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "grid.csv"
        code = main(["sweep", "--segment", "berlin-schaepe-koeckern",
                     "--fd", "0:0.3:3", "--fg", "0.1", "--no-memory",
                     "--out", str(out)])
        assert code == 0
        assert "wrote 3 rows" in capsys.readouterr().out
        rows = parse_rows(out)
        assert len(rows) == 3
        assert [r.f_d for r in rows] == pytest.approx([0.0, 0.15, 0.3])
        assert all(r.f_g == 0.1 for r in rows)

    def test_sweep_with_failed_rows_exits_1(self, tmp_path, capsys):
        # memory-on rows of a segment without memory fail; the file is
        # still written, header unchanged, and the status reports it
        out = tmp_path / "grid.csv"
        path = write_doc(tmp_path, minimal_doc())
        code = main(["sweep", "--config", str(path), "--fd", "0", "--fg", "0",
                     "--out", str(out)])
        assert code == 1
        printed = capsys.readouterr().out
        assert "wrote 2 rows" in printed and "(1 rows failed)" in printed
        assert out.read_text().splitlines()[0] == ",".join(CSV_COLUMNS)
        rows = parse_rows(out)
        assert rows[0].error is None and math.isnan(rows[1].fidelity)

    @pytest.mark.parametrize("argv, message", [
        (["sweep", "--fd", "2"], "--fd: need 0 <= value <= 1, got 2.0"),
        (["sweep", "--fd", "0:0.3:0"], "--fd: steps must be >= 1, got 0"),
        (["sweep", "--fg", "-0.5"], "--fg: need 0 <= value <= 1, got -0.5"),
        (["sweep", "--t2", "-1"], "--t2: must be positive, got (-1.0,)"),
        (["simulate", "--fg", "1.5"], "--fg: need 0 <= value <= 1, got 1.5"),
        (["simulate", "--memory", "--t2", "0"], "--t2: must be positive, got (0.0,)"),
        (["mc-check", "--samples", "0"], "--samples: must be >= 1, got 0"),
        (["sweep", "--fd", "0:2:3"], "--fd: need 0 <= min <= max <= 1, got 0.0..2.0"),
        (["sweep", "--memory", "--t2", "nan"], "--t2: must be positive, got (nan,)"),
        (["simulate", "--memory", "--t2", "nan"], "--t2: must be positive, got (nan,)"),
        (["sweep", "--fd", "0:0.3:x"], "--fd: axis must be VALUE or MIN:MAX:STEPS, got '0:0.3:x'"),
        (["sweep", "--fg", "a"], "--fg: axis must be VALUE or MIN:MAX:STEPS, got 'a'"),
        (["sweep", "--fd", "0:1"], "--fd: axis must be VALUE or MIN:MAX:STEPS, got '0:1'"),
        (["mc-check", "--seed", "-5"], "--seed: must be >= 0, got -5"),
        (["sweep", "--memory", "--t2", "inf"], "--t2: must be finite, got (inf,)"),
        (["simulate", "--memory", "--t2", "inf"], "--t2: must be finite, got (inf,)"),
        (["sweep", "--memory", "--t2", "1", "--t2", "1"],
         "--t2: must be distinct, got (1.0, 1.0)"),
        (["simulate", "--fd", "nan"], "--fd: need 0 <= value <= 1, got nan"),
        (["mc-check", "--samples", str(10**12 + 1)],
         f"--samples: must be <= {10**12}, got {10**12 + 1}"),
        (["sweep", "--no-memory", "--fd", "0:0.3:1", "--fg", "0"],
         "--fd: one step needs min == max, got 0.0..0.3"),
        (["simulate", "--t2", "5"],
         "--t2: needs memory-on rows, got memory modes ('off',)"),
        (["sweep", "--no-memory", "--t2", "3", "--fd", "0", "--fg", "0"],
         "--t2: needs memory-on rows, got memory modes ('off',)"),
    ])
    def test_range_errors_name_the_option(self, tmp_path, capsys, argv, message):
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("fd, fg, points", [
        ("0:0.3:20000", "0:0.3:20000", 400000000), ("0:0.3:1000", "0:0.3:1001", 1001000),
        ("0:0.3:1000001", "0", 1000001),
    ])
    def test_an_oversized_grid_exits_2_before_any_point_runs(
        self, monkeypatch, tmp_path, capsys, fd, fg, points
    ):
        # only the spec is built: evaluating a grid this large would fail
        # at its allocation (20000 x 20000 points take about 800 GB)
        monkeypatch.setattr(sweep, "run_sweep", lambda *args: pytest.fail("the grid ran"))
        out = tmp_path / "big.csv"
        assert main(["sweep", "--fd", fd, "--fg", fg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: --fd x --fg: {points} grid points, more than the 1000000 a sweep may hold\n")
        assert not out.exists()

    @pytest.mark.parametrize("argv, blocks", [
        ([], 8), (["--memory", "--t2", "1", "--t2", "2"], 8), (["--no-memory"], 4),
    ], ids=["both-modes", "two-t2", "one-mode"])
    def test_a_run_of_more_rows_than_the_cap_exits_2_before_any_block_runs(
        self, monkeypatch, tmp_path, capsys, argv, blocks
    ):
        # each block holds 25 points, under the cap, but a run keeps every
        # block's rows until it writes them; the bundled file has 4 segments
        monkeypatch.setattr(sweep, "MAX_GRID_POINTS", 25 * 4)
        out = tmp_path / "grid.csv"
        argv = ["sweep", "--fd", "0:0.3:5", "--fg", "0:0.3:5", "--out", str(out), *argv]
        if blocks == 4:
            assert main(argv) == 0
            assert "wrote 100 rows" in capsys.readouterr().out
            return
        monkeypatch.setattr(sweep, "rate_reports", lambda *args, **kw: pytest.fail("a block ran"))
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: --fd x --fg: 25 grid points x {blocks} blocks = {25 * blocks} rows, "
            "more than the 100 a sweep may hold\n")
        assert not out.exists()

    def test_a_sweep_after_an_edit_writes_the_edited_rows(self, tmp_path, capsys):
        # two requests in one process: the second reads the edited file,
        # not the configs the first one built
        text = LOADED_FILES[0].read_text(encoding="utf-8")
        edited = text.replace("AB: {length: 90.0, loss_db: 18.0}",
                              "AB: {length: 90.0, loss_db: 21.0}", 1)
        assert edited != text
        path, reference = tmp_path / "segments.yaml", tmp_path / "reference.yaml"
        outs = {}
        for name, source, content in (("before", path, text), ("after", path, edited),
                                      ("reference", reference, edited)):
            source.write_text(content, encoding="utf-8")
            outs[name] = tmp_path / f"{name}.csv"
            assert main(["sweep", "--config", str(source), "--segment", "berlin-schaepe-koeckern",
                         "--fd", "0:0.3:2", "--fg", "0.1", "--out", str(outs[name])]) == 0
        before, after, cold = (outs[name].read_bytes() for name in ("before", "after", "reference"))
        assert after == cold != before
        path.write_text(edited.replace("loss_db: 21.0", "loss_db: -21.0", 1), encoding="utf-8")
        capsys.readouterr()
        assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "bad.csv")]) == 2
        assert capsys.readouterr().err == (
            "error: invalid configuration:\n"
            "  - segments.0.links.AB.loss_db: -21.0 is less than the minimum of 0\n")
        assert not (tmp_path / "bad.csv").exists()

    def test_simulate_long_t2_limit(self, tmp_path):
        # the ideal-memory limit: coherence rounded above 1 once failed here
        out = tmp_path / "report.json"
        code = main(["simulate", "--memory", "--t2", "1e15", "--format", "json",
                     "--out", str(out)])
        assert code == 0
        rows = json.loads(out.read_text())
        assert len(rows) == 4
        assert all(isinstance(v, float) and math.isfinite(v)
                   for row in rows for k, v in row.items() if k not in ("segment", "memory"))

    def test_sweep_long_t2_limit_has_no_failed_rows(self, tmp_path, capsys):
        out = tmp_path / "grid.json"
        code = main(["sweep", "--memory", "--t2", "1e15", "--fd", "0:0.3:3", "--fg", "0:0.3:3",
                     "--format", "json", "--out", str(out)])
        assert code == 0
        assert capsys.readouterr().out == f"wrote 36 rows to {out}\n"
        assert all(r.error is None for r in parse_rows(out))

    def test_underflowing_c_t2_gives_finite_output(self, tmp_path, capsys):
        # c T2 = 1e-400 underflows to 0 and once raised ZeroDivisionError
        doc = yaml.load(data_path().read_text(), Loader=YAML_LOADER)
        seg = doc["segments"][0]
        seg["memory"]["T2"] = seg["speed_of_light"] = 1.0e-200
        path = write_doc(tmp_path, {"segments": [seg]})
        base = ["--config", str(path), "--out"]
        assert main(["simulate", "--memory", "--format", "json", *base,
                     str(tmp_path / "sim.json")]) == 0
        assert main(["sweep", "--memory", "--fd", "0:0.3:3", "--fg", "0:0.3:3", "--format",
                     "json", *base, str(tmp_path / "grid.json")]) == 0
        assert main(["mc-check", "--samples", "1000", *base, str(tmp_path / "mc.json")]) == 0
        assert capsys.readouterr().err == ""

        def reject(constant):
            raise ValueError(f"non-finite number {constant} in output")

        rows = [row for name in ("sim.json", "grid.json")
                for row in json.loads((tmp_path / name).read_text(), parse_constant=reject)]
        assert len(rows) == 10
        assert all(isinstance(v, float) and math.isfinite(v)
                   for row in rows for k, v in row.items() if k not in ("segment", "memory"))
        checks = json.loads((tmp_path / "mc.json").read_text(), parse_constant=reject)["checks"]
        assert [c["check"] for c in checks] == [
            "expected_max_outer", "yield_memoryless", "coherence_near"]
        assert checks[2]["formula"] == 0.0
        # the values the oracles gave while -wait/T2 still warned on overflow
        assert [(c["estimate"], c["standard_error"]) for c in checks] == [
            (328.836, 7.744538784523258), (0.0, 0.0), (0.0, 0.0)]
        # the oracle's -wait/T2 overflows to -inf, whose exp is the exact 0;
        # a fresh interpreter shows any RuntimeWarning that says so on stderr
        argv = ["mc-check", "--samples", "1000", *base, str(tmp_path / "mc2.json")]
        done = fresh_process(f"import sys, ghzline.cli; sys.exit(ghzline.cli.main({argv!r}))")
        assert (done.returncode, done.stdout, done.stderr) == (0, "", "")
        assert (tmp_path / "mc2.json").read_text() == (tmp_path / "mc.json").read_text()

    def test_infinite_far_attempt_period_gives_finite_output(self, tmp_path, capsys):
        # 2 L / c overflows to inf on the far link; where the two attempt
        # counts tie, the coherence oracle once formed 0 * inf = NaN
        doc = yaml.load(data_path().read_text(), Loader=YAML_LOADER)
        seg = doc["segments"][0]
        seg["links"]["BC"] = {"length": 1.0e300, "transmission": 0.5}
        seg["speed_of_light"] = 1.0e-10
        path = write_doc(tmp_path, {"segments": [seg]})
        base = ["--config", str(path), "--out"]
        assert main(["simulate", "--memory", "--format", "json", *base,
                     str(tmp_path / "sim.json")]) == 0
        assert main(["mc-check", "--samples", "1000", *base, str(tmp_path / "mc.json")]) == 0
        assert capsys.readouterr().err == ""

        def reject(constant):
            raise ValueError(f"not strict JSON: {constant}")

        (row,) = json.loads((tmp_path / "sim.json").read_text(), parse_constant=reject)
        assert all(math.isfinite(v) for k, v in row.items() if isinstance(v, float))
        checks = json.loads((tmp_path / "mc.json").read_text(), parse_constant=reject)["checks"]
        assert checks[2]["check"] == "coherence_near"
        assert (checks[2]["formula"], checks[2]["estimate"], checks[2]["standard_error"]) == (
            0.0, 0.0, 0.0)
        assert all(math.isfinite(c[key]) for c in checks
                   for key in ("formula", "estimate", "standard_error"))
        # a fresh interpreter shows any RuntimeWarning on stderr
        argv = ["mc-check", "--samples", "1000", *base, str(tmp_path / "mc2.json")]
        done = fresh_process(f"import sys, ghzline.cli; sys.exit(ghzline.cli.main({argv!r}))")
        assert (done.returncode, done.stdout, done.stderr) == (0, "", "")
        assert (tmp_path / "mc2.json").read_text() == (tmp_path / "mc.json").read_text()

    def test_cancelling_coherence_divisor_gives_finite_output(self, tmp_path, capsys):
        # efficiency 1e-15 and no dark counts at A and C with T2 = 1e15 s:
        # beta and 1 - p both round to 1, and the near memory's divisor
        # 1 - beta (1 - p) once raised ZeroDivisionError
        doc = yaml.load(data_path().read_text(), Loader=YAML_LOADER)
        seg = doc["segments"][0]
        for node in ("A", "C"):
            seg["nodes"][node].update(detector_efficiency=1.0e-15, dark_count_prob=0.0)
        seg["memory"]["T2"] = 1.0e15
        path = write_doc(tmp_path, {"segments": [seg]})
        base = ["--config", str(path), "--out"]
        assert main(["simulate", "--memory", "--format", "json", *base,
                     str(tmp_path / "sim.json")]) == 0
        assert main(["sweep", "--fd", "0:0.3:3", "--fg", "0:0.3:3", "--format", "json",
                     *base, str(tmp_path / "grid.json")]) == 0
        assert main(["mc-check", "--samples", "1000", *base, str(tmp_path / "mc.json")]) == 0
        assert capsys.readouterr().err == ""

        def reject(constant):
            raise ValueError(f"non-finite number {constant} in output")

        rows = [row for name in ("sim.json", "grid.json")
                for row in json.loads((tmp_path / name).read_text(), parse_constant=reject)]
        assert len(rows) == 19 and not any("error" in row for row in rows)
        assert all(isinstance(v, float) and math.isfinite(v)
                   for row in rows for k, v in row.items()
                   if k not in ("segment", "memory") and v is not None)
        checks = json.loads((tmp_path / "mc.json").read_text(), parse_constant=reject)["checks"]
        assert 0.9 < checks[2]["formula"] < 1.0 and checks[2]["within_3_sigma"]

    def test_parser_is_reused_without_sharing_appended_values(self, tmp_path):
        # the cached parser must not carry one call's --t2 list into the next
        out = tmp_path / "grid.csv"
        base = ["sweep", "--segment", "berlin-schaepe-koeckern", "--fd", "0", "--fg", "0",
                "--memory", "--out", str(out)]
        assert main(base + ["--t2", "2.5"]) == 0
        assert main(base + ["--t2", "10"]) == 0
        assert [r.t2_s for r in parse_rows(out)] == [10.0]
        assert _build_parser() is _build_parser()
        assert _build_parser().parse_args(["sweep", "--out", str(out)]).t2 is None

    def test_yields_table(self, capsys):
        assert main(["yields"]) == 0
        out = capsys.readouterr().out
        assert "segment" in out and "with memory" in out
        assert "koeckern-eulau-erfurt" in out

    def test_yields_csv(self, tmp_path):
        out = tmp_path / "yields.csv"
        assert main(["yields", "--format", "csv", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "segment,yield,yield_memory,ratio"
        assert len(lines) == 5
        # a segment without memory leaves both memory cells empty
        path = write_doc(tmp_path, minimal_doc())
        assert main(["yields", "--config", str(path), "--format", "csv", "--out", str(out)]) == 0
        assert out.read_text() == (
            "segment,yield,yield_memory,ratio\n" "test-segment,0.0078128125015624675,,\n"
        )

    def test_yields_json(self, tmp_path):
        out = tmp_path / "yields.json"
        assert main(["yields", "--format", "json", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert len(report) == 4
        assert all(r["ratio"] > 1.0 for r in report)

    def test_mc_check_deviation_exits_1(self, tmp_path, capsys, monkeypatch):
        def far_off(cfg, num_samples, seed):
            return McResult(estimate=0.5, standard_error=1e-6, num_samples=num_samples, seed=seed)

        monkeypatch.setattr("ghzline.mc.mc_yield_memoryless", far_off)
        out = tmp_path / "mc.json"
        code = main(["mc-check", "--segment", "berlin-schaepe-koeckern",
                     "--samples", "1000", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (
            "1 of 3 checks deviate by more than 3 standard errors\n")
        report = json.loads(out.read_text())
        assert report["num_deviations"] == 1
        assert [c["check"] for c in report["checks"] if not c["within_3_sigma"]] == [
            "yield_memoryless"]

    def test_mc_check_writes_strict_json_for_huge_attempt_counts(self, tmp_path):
        # E[max] is about 5e300 attempts: squaring such counts overflowed
        # into a NaN standard error, which strict JSON cannot carry
        def reject(constant):
            raise ValueError(f"not strict JSON: {constant}")

        nodes = {key: {"detector_efficiency": 0.5, "dark_count_prob": 0} for key in "ABC"}
        links = {key: {"length": 90.0, "loss_db": 3000} for key in ("AB", "BC")}
        doc = minimal_doc(nodes=nodes, links=links, memory={"efficiency": 0.9, "T2": 2.5})
        out = tmp_path / "mc.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["mc-check", "--config", str(write_doc(tmp_path, doc)),
                         "--samples", "1000", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text(), parse_constant=reject)
        (check,) = [c for c in report["checks"] if c["check"] == "expected_max_outer"]
        assert 0.0 < check["standard_error"] < check["estimate"] / 10.0
        assert check["within_3_sigma"]

    def test_mc_check_passes_on_bundled_segment(self, tmp_path):
        out = tmp_path / "mc.json"
        code = main(["mc-check", "--segment", "berlin-schaepe-koeckern",
                     "--samples", "100000", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["num_checks"] == 3
        assert report["num_deviations"] == 0
        assert all(c["within_3_sigma"] for c in report["checks"])
