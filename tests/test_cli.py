import hashlib
import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from smoothtm.cli import main
from smoothtm.machines import parse_machine
from smoothtm.sampling import random_smooth_config
from smoothtm.smooth import format_config

ID_TM = """\
states: q
alphabet: _ A B
tapes: 1
q _ -> q _ S
q A -> q A S
q B -> q B S
"""

LR_TM = """\
states: q
alphabet: _ A B
tapes: 1
q _ -> q _ S
q A -> q A R
q B -> q B L
"""

TWO_TAPE_TM = "\n".join(
    ["states: q", "alphabet: _ A", "tapes: 2"]
    + [f"q {a} {b} -> q A _ R L" for a in "_A" for b in "_A"]
) + "\n"

HALF_CFG = '{"state": {"q": 1.0}, "tapes": [{"lo": 0, "cells": [{"A": 0.5, "B": 0.5}]}]}'
BLANK_CFG = '{"state": {"q": 1.0}, "tapes": [{"lo": 0, "cells": [{"_": 1.0}]}]}'


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, text in [
        ("id.tm", ID_TM),
        ("lr.tm", LR_TM),
        ("two.tm", TWO_TAPE_TM),
        ("half.cfg", HALF_CFG),
        ("blank.cfg", BLANK_CFG),
        ("alpha.txt", "_ A B\n"),
    ]:
        p = tmp_path / name
        p.write_text(text)
        paths[name] = str(p)
    paths["dir"] = tmp_path
    return paths


def test_run_identity_unchanged(files, capsys):
    assert main(["run", files["id.tm"], files["blank.cfg"], "--steps", "5"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["state"] == {"q": 1.0}
    assert out["tapes"][0]["cells"] == [{"_": 1.0}]


def test_run_smooth_lr(files, capsys):
    trace = str(files["dir"] / "trace.jsonl")
    code = main(
        ["run", files["lr.tm"], files["half.cfg"], "--smooth", "--steps", "1",
         "--trace", trace]
    )
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    cells = out["tapes"][0]["cells"]
    assert out["tapes"][0]["lo"] == -1
    assert cells[0] == {"A": 0.25, "B": 0.25, "_": 0.5}
    assert cells[2] == {"A": 0.25, "B": 0.25, "_": 0.5}
    rec = json.loads((files["dir"] / "trace.jsonl").read_text().splitlines()[0])
    assert rec["step"] == 1
    assert rec["direction"] == [{"-1": 0.5, "1": 0.5}]


def test_run_uncertain_config_needs_smooth(files, capsys):
    assert main(["run", files["lr.tm"], files["half.cfg"], "--steps", "1"]) == 2
    assert "smooth" in capsys.readouterr().err


def test_run_parse_error_exit_2(files, tmp_path, capsys):
    bad = tmp_path / "bad.tm"
    bad.write_text("states: q\nalphabet: _\ntapes: 1\nq X -> q _ S\n")
    assert main(["run", str(bad), files["blank.cfg"]]) == 2
    err = capsys.readouterr().err
    assert "line 4" in err
    assert main(["run", str(tmp_path / "missing.tm"), files["blank.cfg"]]) == 2


def test_compile_writes_sections_and_metadata(files, capsys):
    out = str(files["dir"] / "lr.sim")
    assert main(["compile", files["lr.tm"], "-o", out]) == 0
    text = (files["dir"] / "lr.sim").read_text()
    assert "section: R1" in text and "tract:" in text
    assert "meta: cycle_length_base" in text
    assert main(["compile", files["two.tm"], "-o", out]) == 0


def test_utm_identity_cycle(files, capsys):
    code = main(
        ["utm", "--states", "1", "--alphabet", files["alpha.txt"],
         "--code", files["id.tm"], "--cycles", "1", "--input", files["half.cfg"]]
    )
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["tapes"][0]["cells"] == [{"A": 0.5, "B": 0.5}]


def test_utm_overrides(files, capsys):
    ov = files["dir"] / "ov.txt"
    ov.write_text("(q,A) -> {q: 1.0} / {A: 0.25, B: 0.75} / {S: 1.0}\n")
    code = main(
        ["utm", "--states", "1", "--alphabet", files["alpha.txt"],
         "--code", files["id.tm"], "--cycles", "2", "--input", files["half.cfg"],
         "--overrides", str(ov)]
    )
    assert code == 0


def test_utm_size_mismatch(files, capsys):
    assert (
        main(
            ["utm", "--states", "3", "--alphabet", files["alpha.txt"],
             "--code", files["id.tm"]]
        )
        == 2
    )
    assert "size mismatch" in capsys.readouterr().err


def test_verify_multitape_passes(files, capsys):
    rep = str(files["dir"] / "rep.json")
    code = main(
        ["verify", "--construction", "multitape", "--trials", "3",
         "--seed", "7", "--tol", "1e-9", "--report", rep]
    )
    assert code == 0
    report = json.loads((files["dir"] / "rep.json").read_text())
    assert report["pass"] and len(report["results"]) == 3


def test_verify_reports_deterministic(files):
    args = ["verify", "--construction", "utm", "--trials", "2", "--seed", "5"]
    r1 = str(files["dir"] / "a.json")
    r2 = str(files["dir"] / "b.json")
    assert main(args + ["--report", r1]) == 0
    assert main(args + ["--report", r2]) == 0
    assert (files["dir"] / "a.json").read_bytes() == (
        files["dir"] / "b.json"
    ).read_bytes()


def test_verify_staged_fails_with_numbers(files, capsys):
    assert main(["verify", "--construction", "staged-counterexample"]) == 1
    err = capsys.readouterr().err
    assert "0.375" in err and "0.625" in err and "0.5" in err


def test_verify_broken_multitape_fails(files):
    assert (
        main(
            ["verify", "--construction", "broken-multitape", "--trials", "2",
             "--seed", "1"]
        )
        == 1
    )


# SHA-256 of ``verify --seed 0 --trials 4 --report OUT``: any change to the
# sampling, the stepping arithmetic or the report layout moves a digest
REPORT_DIGESTS = {
    "multitape": "75039c1d51080a5d70ff3410ad128d8aa0f30b87d5979d40c4128083c2ffb923",
    "broken-multitape": "a096c50e812187940fcda9f76fa6bf8d3ad6339b931ce24ff8aeb93807f89733",
    "utm": "892fa8e15b5e69eea0fe34b2b63279605cbd1bdcfd5520773953b911bbed9778",
    "utm --uncertain-codes": "41630ec2aea231e12b5b6b32b724626d67f5924c96f76f536f0af0b3ddfc6ece",
    "staged-counterexample": "a19e476621786d25c895dec3103de48dee17eae3a36b50a2e4bc5177331e4ddc",
}


@pytest.mark.parametrize("construction", list(REPORT_DIGESTS))
def test_verify_report_bytes_pinned(construction, tmp_path):
    rep = tmp_path / "rep.json"
    main(["verify", "--construction", *construction.split(), "--seed", "0",
          "--trials", "4", "--report", str(rep)])
    assert hashlib.sha256(rep.read_bytes()).hexdigest() == REPORT_DIGESTS[construction]


def test_verify_utm_without_encoding_fails_cleanly(files):
    """A first cycle that reaches no encoding is a reported failure."""
    proc = subprocess.run(
        [sys.executable, "-m", "smoothtm.cli", "verify", "--construction",
         "utm", "--trials", "1"],
        capture_output=True,
        text=True,
        env=dict(os.environ, SMOOTHTM_MAX_STEPS="5"),
    )
    assert proc.returncode == 1
    assert "FAIL" in proc.stderr and "Traceback" not in proc.stderr
    (result,) = json.loads(proc.stdout)["results"]
    assert result["violations"] == [{"step": 5, "violation": "no encoding reached"}]
    assert "shuffle_deviation" not in result and result["pass"] is False


def test_usage_error_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["verify"])  # missing --construction
    assert exc.value.code == 2


def test_console_entry_point(files):
    proc = subprocess.run(
        [sys.executable, "-m", "smoothtm.cli", "run", files["id.tm"],
         files["blank.cfg"], "--steps", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["state"] == {"q": 1.0}


# a 3-state, 3-symbol machine whose state, write and move maps are all onto,
# so from a full-support start every step keeps all three moves uncertain and
# the window grows by two cells a step
DENSE_TM = """\
states: q0 q1 q2
alphabet: _ A B
tapes: 1
q0 _ -> q1 A R
q0 A -> q2 B L
q0 B -> q0 _ S
q1 _ -> q2 B S
q1 A -> q0 _ R
q1 B -> q1 A L
q2 _ -> q0 A L
q2 A -> q1 B S
q2 B -> q2 _ R
"""
# SHA-256 of stdout and of the --trace file of ``run --smooth --steps 300``
# from DENSE_TM's seed-0 start: any change to the dense step's arithmetic,
# its canonical trimming or the JSON layout moves a digest
DENSE_RUN_DIGESTS = {
    "stdout": "da2dd083142becccb101142f5abd49d7d7eab009f5b98bbb7ded326863eeccd5",
    "trace": "f92ddfd6e23201c5acecc577f642c925d2b49ed084a4bccbe6c7350aadd73c4f",
}


def test_run_smooth_dense_bytes_pinned(tmp_path, capsys):
    tm, cfg, trace = tmp_path / "dense.tm", tmp_path / "c0.json", tmp_path / "t.jsonl"
    tm.write_text(DENSE_TM)
    start = random_smooth_config(
        parse_machine(DENSE_TM), np.random.default_rng(0), radius=3
    )
    cfg.write_text(format_config(start))
    argv = ["run", str(tm), str(cfg), "--smooth", "--steps", "300", "--trace", str(trace)]
    assert main(argv) == 0
    out = capsys.readouterr().out.encode()
    assert {
        "stdout": hashlib.sha256(out).hexdigest(),
        "trace": hashlib.sha256(trace.read_bytes()).hexdigest(),
    } == DENSE_RUN_DIGESTS


def assert_usage_error(argv, capsys, *expected):
    """Exit 2 with one line on stderr naming the problem, no traceback."""
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    for text in expected:
        assert text in lines[0]


def test_verify_zero_trials_exit_2(capsys):
    argv = ["verify", "--construction", "multitape", "--trials", "0"]
    assert_usage_error(argv, capsys, "--trials", "positive")


def test_verify_negative_trials_exit_2(capsys):
    argv = ["verify", "--construction", "utm", "--trials", "-4"]
    assert_usage_error(argv, capsys, "--trials", "-4")


def test_run_negative_steps_exit_2(files, capsys):
    argv = ["run", files["id.tm"], files["blank.cfg"], "--steps", "-3"]
    assert_usage_error(argv, capsys, "--steps", "-3")


def test_utm_zero_cycles_exit_2(files, capsys):
    argv = ["utm", "--states", "1", "--alphabet", files["alpha.txt"],
            "--code", files["id.tm"], "--cycles", "0"]
    assert_usage_error(argv, capsys, "--cycles")


def test_max_steps_env_not_integer_exit_2(monkeypatch, capsys):
    monkeypatch.setenv("SMOOTHTM_MAX_STEPS", "abc")
    argv = ["verify", "--construction", "multitape", "--trials", "1"]
    assert_usage_error(argv, capsys, "SMOOTHTM_MAX_STEPS", "'abc'")


@pytest.mark.parametrize("value", ["0", "-5"])
def test_max_steps_env_not_positive_exit_2(monkeypatch, capsys, value):
    monkeypatch.setenv("SMOOTHTM_MAX_STEPS", value)
    argv = ["verify", "--construction", "utm", "--trials", "1"]
    assert_usage_error(argv, capsys, "SMOOTHTM_MAX_STEPS", value)


TAPE = '{"lo": 0, "cells": [{"A": 0.5, "B": 0.5}]}'


@pytest.mark.parametrize(
    "config, expected",
    [
        ('{"state": {"q": 1.0}, "tapes": [{"lo": "x"}]}',
         "tapes[0].lo must be an integer"),
        ('{"state": {"q": 1.0}, "tapes": [{"lo": 1.7}]}',
         "tapes[0].lo must be an integer"),
        ('{"state": {"q": 1.0}, "tapes": [{"cells": [{"A": "a", "B": 0.5}]}]}',
         "tapes[0].cells[0]: weight of symbol 'A' must be a finite number"),
        ('{"state": {"q": 1.0}, "tapes": [{"cells": [{"A": NaN, "B": 0.5}]}]}',
         "weight of symbol 'A' must be a finite number, got nan"),
        ('{"state": {"q": NaN}, "tapes": [' + TAPE + "]}", "weight of state 'q'"),
        ('{"state": {"q": 1.0}, "tapes": 3}', "tapes must be a list"),
        ('{"state": {"q": 1.0}, "tapes": [3]}', "tapes[0] must be an object"),
        ('{"state": {"q": 1.0}, "tapes": [{"cells": [3]}]}',
         "tapes[0].cells[0] must be an object"),
        ('{"state": [1], "tapes": [' + TAPE + "]}", "state must be an object"),
        ('{"tapes": [' + TAPE + "]}", "missing field 'state'"),
        ("[1]", "configuration must be an object"),
        ("[" * 100000, "nested too deeply"),
        (b'{"state": {"q": 1.0}, "tapes": [{}]}\xff', "not UTF-8 text"),
    ],
    ids=["lo-string", "lo-fraction", "weight-string", "weight-nan", "state-nan",
         "tapes-number", "tape-number", "cell-number", "state-list",
         "state-missing", "top-level-list", "deep-nesting", "not-utf8"],
)
def test_run_malformed_config_exit_2(files, capsys, config, expected):
    bad = files["dir"] / "bad.cfg"
    bad.write_bytes(config if isinstance(config, bytes) else config.encode())
    argv = ["run", files["lr.tm"], str(bad), "--smooth"]
    assert_usage_error(argv, capsys, "bad.cfg", expected)


def test_utm_override_weight_not_number_exit_2(files, capsys):
    ov = files["dir"] / "ov.txt"
    ov.write_text("(q,A) -> {q: x} / {A: 1.0} / {S: 1.0}\n")
    argv = ["utm", "--states", "1", "--alphabet", files["alpha.txt"],
            "--code", files["id.tm"], "--overrides", str(ov)]
    assert_usage_error(argv, capsys, "'q: x'", "not a number")


@pytest.mark.parametrize(
    "machine, expected",
    [
        ("states: q\nalphabet: _\ntapes: 0\n", "need at least one tape"),
        ("states: q q\nalphabet: _\ntapes: 1\nq _ -> q _ S\n",
         "line 1: duplicate state label"),
        ("states: q\nalphabet: _ A _\ntapes: 1\n", "line 2: duplicate symbol label"),
        ("states: q\nalphabet: _ A\ntapes: 1\nq _ -> q _ S\n",
         "delta is not total: missing ('q', ('A',))"),
    ],
    ids=["no-tapes", "duplicate-state", "duplicate-symbol", "partial-table"],
)
def test_run_malformed_machine_exit_2(files, capsys, machine, expected):
    bad = files["dir"] / "bad.tm"
    bad.write_text(machine)
    assert_usage_error(["run", str(bad), files["blank.cfg"]], capsys, "bad.tm", expected)


def test_run_huge_tape_count_exit_2(files, capsys):
    # an empty table is rejected before the 10^8-long key of its first
    # missing transition is built
    bad = files["dir"] / "bad.tm"
    bad.write_text("states: q\nalphabet: _\ntapes: 99999999\n")
    start = time.perf_counter()
    assert_usage_error(
        ["run", str(bad), files["blank.cfg"]], capsys, "bad.tm",
        "delta is not total: no transitions given",
    )
    assert time.perf_counter() - start < 1.0
