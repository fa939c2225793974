import hashlib
import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from smoothtm import cli
from smoothtm.cli import main
from smoothtm.machines import format_machine, parse_machine
from smoothtm.sampling import random_machine, random_smooth_config
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

NO_STATES_TM = "states:\nalphabet: _ A\ntapes: 1\n"

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
    assert rec["direction"] == [{"L": 0.5, "R": 0.5}]


def test_run_trace_line_reads_back_as_configuration(files, capsys):
    """A trace record's extra top-level fields (``step``, ``direction``) are
    ignored, so one step from it is the second step of the traced run."""
    trace = files["dir"] / "trace.jsonl"
    argv = ["run", files["lr.tm"], files["half.cfg"], "--smooth", "--trace", str(trace)]
    assert main(argv) == 0
    line = files["dir"] / "line.cfg"
    line.write_text(trace.read_text().splitlines()[0])
    capsys.readouterr()
    assert main(["run", files["lr.tm"], str(line), "--smooth"]) == 0
    resumed = capsys.readouterr().out
    assert main(["run", files["lr.tm"], files["half.cfg"], "--smooth", "--steps", "2"]) == 0
    assert resumed == capsys.readouterr().out


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


def override_entry(q, a, write):
    """A JSON overrides file for one pair: stay in ``q`` and do not move."""
    move = {"S": 1.0}
    return json.dumps({q: {a: {"target": {q: 1.0}, "write": write, "move": move}}})


@pytest.mark.parametrize(
    "sep", ["", "/", ",", ":"], ids=["plain", "slash", "comma", "colon"]
)
def test_utm_overrides(files, capsys, sep):
    """Any label machine text allows can be overridden: two UTM cycles of the
    identity machine from a half/half cell, without and with an override
    that writes symbol ``a`` as {a: 0.25, B: 0.75}."""
    q, a = f"q{sep}0", f"A{sep}B"
    d = files["dir"]
    (d / "o.tm").write_text(
        f"states: {q}\nalphabet: _ {a} B\ntapes: 1\n"
        + "".join(f"{q} {x} -> {q} {x} S\n" for x in ("_", a, "B"))
    )
    (d / "o.alpha").write_text(f"_ {a} B\n")
    (d / "o.cfg").write_text(json.dumps(
        {"state": {q: 1.0}, "tapes": [{"cells": [{a: 0.5, "B": 0.5}]}]}
    ))
    (d / "o.json").write_text(override_entry(q, a, {a: 0.25, "B": 0.75}))
    argv = ["utm", "--states", "1", "--alphabet", str(d / "o.alpha"),
            "--code", str(d / "o.tm"), "--cycles", "2", "--input", str(d / "o.cfg")]
    cells = []
    for extra in ([], ["--overrides", str(d / "o.json")]):
        assert main(argv + extra) == 0
        cells.append(json.loads(capsys.readouterr().out)["tapes"][0]["cells"])
    assert cells[0] == [{a: 0.5, "B": 0.5}]
    assert cells[1][0][a] == pytest.approx(0.5 * 0.25 * 0.25, abs=1e-12)


def test_utm_size_mismatch(files, capsys):
    assert (
        main(
            ["utm", "--states", "3", "--alphabet", files["alpha.txt"],
             "--code", files["id.tm"]]
        )
        == 2
    )
    assert "size mismatch" in capsys.readouterr().err


# a 2-state code whose three cycles from UTM_INPUT under UTM_OVERRIDES
# deviate from the generalized step by 2.220e-16, 1.110e-16 and 1.249e-16
UTM_TM = """\
states: a b
alphabet: _ A B
tapes: 1
a _ -> b A R
a A -> a B L
a B -> b _ S
b _ -> a B L
b A -> b A R
b B -> a _ R
"""
UTM_OVERRIDES = json.dumps({
    "a": {"A": {"target": {"a": 0.3, "b": 0.7}, "write": {"A": 0.2, "B": 0.3, "_": 0.5},
                "move": {"L": 0.1, "S": 0.2, "R": 0.7}}},
    "b": {"_": {"target": {"a": 0.5, "b": 0.5}, "write": {"A": 0.6, "_": 0.4},
                "move": {"L": 0.4, "R": 0.6}}},
})
UTM_INPUT = (
    '{"state": {"a": 0.4, "b": 0.6}, "tapes": [{"lo": -1, "cells": '
    '[{"A": 0.5, "_": 0.5}, {"B": 0.9, "A": 0.1}, {"_": 0.2, "B": 0.8}]}]}'
)


def utm_argv(files, *extra):
    texts = {"u.tm": UTM_TM, "u.ov.json": UTM_OVERRIDES, "u.json": UTM_INPUT}
    for name, text in texts.items():
        (files["dir"] / name).write_text(text)
    return ["utm", "--states", "2", "--alphabet", files["alpha.txt"],
            "--code", str(files["dir"] / "u.tm"),
            "--overrides", str(files["dir"] / "u.ov.json"),
            "--input", str(files["dir"] / "u.json"), *extra]


def test_utm_reports_the_max_deviation_over_cycles(files, capsys):
    """The first of three cycles deviates most; the last alone would pass
    ``--tol 1.5e-16``."""
    assert main(utm_argv(files, "--cycles", "3")) == 0
    captured = capsys.readouterr()
    assert captured.err == (
        "cycles: 3, cycle length: 62, max deviation vs direct semantics: 2.220e-16\n"
    )
    out = captured.out
    assert main(utm_argv(files, "--cycles", "3", "--tol", "1.5e-16")) == 1
    captured = capsys.readouterr()
    assert captured.out == out
    assert captured.err.splitlines()[1] == (
        "FAIL: deviation 2.220446049250313e-16 exceeds 1.5e-16"
    )


def test_utm_without_encoding_fails_with_one_line(files, capsys, monkeypatch):
    monkeypatch.setenv("SMOOTHTM_MAX_STEPS", "5")
    assert main(utm_argv(files)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "FAIL: step 5: no encoding reached\n"


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
    "multitape": "55f67bc80b59a53eb6c5f94438d11a62c925fd021c36e82ecb6565bd6706984f",
    "broken-multitape": "7caab95600130e76f19a1255b2d72370f2672e6349bd5226dbcb8305309f3d69",
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


# the same reports at seeds 1 and 2
SEEDED_REPORT_DIGESTS = {
    ("multitape", 1): "727a68d51f4098f7197cd1c8069ed41bf66ccc2efbf43d58e1b9dac2a6b70212",
    ("multitape", 2): "b7a2da83a01ec5ba2659829652086f26b313344179a7a8071e9e099419f133f7",
    ("broken-multitape", 1): "a5dbde1826320cf832bc3715d07473258fa02507deda84e72f103e5c3be57652",
    ("broken-multitape", 2): "b030fb575b630989a7eec733c5188e0bba177cfae0939ccdeb113c1c2d98bb8e",
    ("utm", 1): "0ddfce9802ed0effec19e35a64b2bc42451f1af27c69ed5ff9646162264db61c",
    ("utm", 2): "d290aefd0157a3baf064ac3556a99f3a356e137eef16342b6053ae9a1edd5714",
    ("utm --uncertain-codes", 1):
        "9138e97cab365208f5abac9ddfc521b6a1a4c4ccc2c4335c574ba92272578a08",
    ("utm --uncertain-codes", 2):
        "afd94d0dcc68578c416bb5c4025963e1b65aa5bf710eca170253b2f6200e9288",
    ("staged-counterexample", 1):
        "fe43b2a8aac007ba8f60fd043c040e161ea1ec5d1f7f7f6b3b2470b9a2dc4f59",
    ("staged-counterexample", 2):
        "134e09ee289ebe63e37c3b22ba8251796c7cfa78cba9304f138045b8233b5cb6",
}


@pytest.mark.parametrize(
    "construction,seed", list(SEEDED_REPORT_DIGESTS),
    ids=[f"{c}-{s}" for c, s in SEEDED_REPORT_DIGESTS],
)
def test_verify_report_bytes_pinned_at_more_seeds(construction, seed, tmp_path):
    rep = tmp_path / "rep.json"
    main(["verify", "--construction", *construction.split(), "--seed", str(seed),
          "--trials", "4", "--report", str(rep)])
    digest = hashlib.sha256(rep.read_bytes()).hexdigest()
    assert digest == SEEDED_REPORT_DIGESTS[(construction, seed)]


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
    "stdout": "1e8ed1a6936fe318b4795446233b10e817e17ef14e483cab4568586a432d8c15",
    "trace": "6bc82a28f9ac20bbeb6f5fd4c237921410cdc5aee590ffb26919adec2e5ff796",
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


# SHA-256 of stdout and of the --trace file of ``run --smooth --steps 200``
# for the random 1-tape, 3-state, 9-symbol machine of seed 0 (its state,
# write and move maps are all onto), from a start drawn as DENSE_TM's is:
# the dense step's row reductions over 8 or more symbols
WIDE_DENSE_RUN_DIGESTS = {
    "stdout": "eee4115eb94193a9ac482922ae7e79e5a3edae332b9a7a25ae6b41af3f936de8",
    "trace": "4628c4678b467d9fbbe1d92c54eb97fb2d2c9d7cb3856c724ea72c5ea8b77e9c",
}


def test_run_smooth_dense_wide_alphabet_bytes_pinned(tmp_path, capsys):
    m = random_machine(np.random.default_rng(0), 1, 3, 9)
    tm, cfg, trace = tmp_path / "wide.tm", tmp_path / "c0.json", tmp_path / "t.jsonl"
    tm.write_text(format_machine(m))
    start = random_smooth_config(m, np.random.default_rng(0), radius=3)
    cfg.write_text(format_config(start))
    argv = ["run", str(tm), str(cfg), "--smooth", "--steps", "200", "--trace", str(trace)]
    assert main(argv) == 0
    out = capsys.readouterr().out.encode()
    assert {
        "stdout": hashlib.sha256(out).hexdigest(),
        "trace": hashlib.sha256(trace.read_bytes()).hexdigest(),
    } == WIDE_DENSE_RUN_DIGESTS


@pytest.mark.parametrize("wide", [False, True], ids=["dense", "wide-alphabet"])
def test_run_smooth_in_calls_that_read_the_last_output(tmp_path, capsys, wide):
    """The dense benchmark's call pattern: 149, 1 and 150 steps as three
    calls, each reading the last one's stdout, print the bytes one 300-step
    call prints, for DENSE_TM and for the machine of WIDE_DENSE_RUN_DIGESTS."""
    if wide:
        m = random_machine(np.random.default_rng(0), 1, 3, 9)
        text = format_machine(m)
    else:
        text, m = DENSE_TM, parse_machine(DENSE_TM)
    tm, cfg = tmp_path / "m.tm", tmp_path / "c0.json"
    tm.write_text(text)
    cfg.write_text(format_config(random_smooth_config(m, np.random.default_rng(0), radius=3)))

    def run(path, steps: int) -> str:
        assert main(["run", str(tm), str(path), "--smooth", "--steps", str(steps)]) == 0
        return capsys.readouterr().out

    whole = run(cfg, 300)
    path = cfg
    for k, steps in enumerate((149, 1, 150)):
        out = run(path, steps)
        path = tmp_path / f"c{k + 1}.json"
        path.write_text(out)
    assert out == whole


COLON_TM = "states: q\nalphabet: _ a:b\ntapes: 1\nq _ -> q a:b R\nq a:b -> q _ L\n"


def test_run_symbol_labels_with_colons(tmp_path, capsys):
    """A label with a colon gives the text more colons than keys, so the
    duplicate-key hook decides: a configuration with an "a:b" cell runs,
    its output reads back, and one that repeats "a:b" in a cell exits 2."""
    tm, cfg, bad = tmp_path / "colon.tm", tmp_path / "c.json", tmp_path / "bad.json"
    tm.write_text(COLON_TM)
    cfg.write_text(
        '{"state": {"q": 1.0}, "tapes": [{"lo": 0, "cells": [{"a:b": 0.5, "_": 0.5}]}]}'
    )
    assert main(["run", str(tm), str(cfg), "--smooth", "--steps", "3"]) == 0
    out = capsys.readouterr().out
    assert "a:b" in json.loads(out)["tapes"][0]["cells"][0]
    cfg.write_text(out)
    assert main(["run", str(tm), str(cfg), "--smooth", "--steps", "3"]) == 0
    capsys.readouterr()
    bad.write_text(
        '{"state": {"q": 1.0}, "tapes": [{"lo": 0, "cells": '
        '[{"a:b": 0.5, "a:b": 0.5, "_": 0.5}]}]}'
    )
    assert_usage_error(
        ["run", str(tm), str(bad), "--smooth"], capsys,
        "bad.json: line 1, column 53: invalid JSON: duplicate key 'a:b'",
    )


def test_importing_the_cli_loads_only_what_run_needs():
    """``compile``, ``utm`` and ``verify`` import the compiler, the UTM and
    the campaigns when they run, so ``run`` starts without them."""
    code = (
        "import sys, smoothtm.cli; print(*sorted(m for m in sys.modules "
        "if m == 'smoothtm' or m.startswith('smoothtm.')))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, check=True)
    assert proc.stdout.split() == [
        "smoothtm", "smoothtm.cli", "smoothtm.dists", "smoothtm.framework",
        "smoothtm.machines", "smoothtm.smooth",
    ]


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


@pytest.mark.parametrize(
    "construction", ["multitape", "broken-multitape", "staged-counterexample"]
)
def test_verify_uncertain_codes_outside_utm_exit_2(capsys, construction):
    argv = ["verify", "--construction", construction, "--uncertain-codes",
            "--trials", "1"]
    assert_usage_error(argv, capsys, "--uncertain-codes", "utm only")


def test_trial_seeds_are_drawn_lazily_as_one_vector_draw():
    """Each trial's seed is drawn as the trial starts, so a trial count too
    large for an array starts its campaign, and the seeds equal those of one
    vector draw from the master seed."""
    from itertools import islice

    from smoothtm.verify import _trial_seeds

    for seed in range(5):
        want = np.random.default_rng(seed).integers(0, 2**63 - 1, size=200).tolist()
        assert list(_trial_seeds(seed, 200)) == want
        assert list(islice(_trial_seeds(seed, 99999999999999999999), 200)) == want


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


def test_verify_negative_seed_exit_2(capsys):
    argv = ["verify", "--construction", "multitape", "--trials", "1", "--seed", "-1"]
    assert_usage_error(argv, capsys, "--seed", "-1")


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
@pytest.mark.parametrize("command", ["verify", "utm"])
def test_tol_not_finite_non_negative_exit_2(files, capsys, command, tol):
    if command == "verify":
        argv = ["verify", "--construction", "utm", "--trials", "1"]
    else:
        argv = ["utm", "--states", "1", "--alphabet", files["alpha.txt"],
                "--code", files["id.tm"]]
    assert_usage_error(argv + ["--tol", tol], capsys, "--tol", tol)


def test_run_trace_in_missing_directory_exit_2(files, capsys, monkeypatch):
    """The trace file is opened before the first step, not after the run."""

    def no_step(*args):
        raise AssertionError("stepped before opening the trace file")

    monkeypatch.setattr(cli, "smooth_step_dists", no_step)
    trace = str(files["dir"] / "missing" / "trace.jsonl")
    argv = ["run", files["id.tm"], files["blank.cfg"], "--trace", trace]
    assert_usage_error(argv, capsys, "cannot write", trace)


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
        ('{"state": {"q": 1.0}, "tapes": [{"cells": [{"A": 0.5, "A": 0.5, "_": 0.5}]}]}',
         "bad.cfg: line 1, column 44: invalid JSON: duplicate key 'A'"),
        ('{"state": {"q": 1.0}, "tapes": [{"lo": 0, "cell": [{"A": 1.0}]}]}',
         "bad.cfg: tapes[0]: unknown field 'cell'"),
    ],
    ids=["lo-string", "lo-fraction", "weight-string", "weight-nan", "state-nan",
         "tapes-number", "tape-number", "cell-number", "state-list",
         "state-missing", "top-level-list", "deep-nesting", "not-utf8",
         "duplicate-cell-key", "misspelled-cells"],
)
def test_run_malformed_config_exit_2(files, capsys, config, expected):
    bad = files["dir"] / "bad.cfg"
    bad.write_bytes(config if isinstance(config, bytes) else config.encode())
    argv = ["run", files["lr.tm"], str(bad), "--smooth"]
    assert_usage_error(argv, capsys, "bad.cfg", expected)


def utm_overrides_argv(files, overrides: str) -> list:
    ov = files["dir"] / "ov.json"
    ov.write_text(overrides)
    return ["utm", "--states", "1", "--alphabet", files["alpha.txt"],
            "--code", files["id.tm"], "--overrides", str(ov)]


def test_utm_override_weight_not_number_exit_2(files, capsys):
    argv = utm_overrides_argv(files, override_entry("q", "A", {"A": "x"}))
    assert_usage_error(argv, capsys, "ov.json: q.A.write: weight of symbol 'A'",
                       "must be a finite number, got 'x'")


OVERRIDE = override_entry("q", "A", {"A": 1.0})
ENTRY = '{"target": {"q": 1.0}, "write": {"A": 1.0}, "move": {"S": 1.0}'


@pytest.mark.parametrize(
    "overrides, expected",
    [
        (OVERRIDE.replace('{"q": 1.0}', '{"q": 0.7, "q": 1}'),
         "ov.json: line 1, column 24: invalid JSON: duplicate key 'q'"),
        ('{"q": {"A": ' + ENTRY + '}, "A": ' + ENTRY + "}}}",
         "ov.json: line 1, column 7: invalid JSON: duplicate key 'A'"),
        (OVERRIDE.replace('{"S": 1.0}', '{"L": NaN}'),
         "ov.json: q.A.move: weight of move 'L' must be a finite number, got nan"),
        (OVERRIDE.replace(', "move": {"S": 1.0}', ""),
         "ov.json: missing field 'q.A.move'"),
        (OVERRIDE.replace('"q": {', '"p": {', 1),
         "ov.json: overrides: unknown state 'p'"),
        (OVERRIDE.replace('"A": {"target"', '"C": {"target"'),
         "ov.json: q: unknown symbol 'C'"),
        (OVERRIDE.replace('{"S": 1.0}', '{"X": 1.0}'),
         "ov.json: q.A.move: unknown move 'X'"),
        (OVERRIDE.replace('"move"', '"moves"'),
         "ov.json: q.A: unknown field 'moves'"),
        (OVERRIDE.replace('{"A": 1.0}', '{"A": 0.5, "B": 0.25}'),
         "ov.json: q.A.write: bad symbol distribution"),
        (OVERRIDE.replace('{"S": 1.0}', '{"S": Infinity}'),
         "ov.json: q.A.move: weight of move 'S' must be a finite number, got inf"),
    ],
    ids=["duplicate-label", "duplicate-pair", "nan-weight", "two-parts",
         "unknown-state", "unknown-symbol", "unknown-move", "unknown-field",
         "off-simplex", "infinite-weight"],
)
def test_utm_malformed_overrides_exit_2(files, capsys, overrides, expected):
    assert_usage_error(utm_overrides_argv(files, overrides), capsys, expected)


@pytest.mark.parametrize(
    "machine, expected",
    [
        ("states: q\nalphabet: _\ntapes: 0\n", "need at least one tape"),
        ("states: q q\nalphabet: _\ntapes: 1\nq _ -> q _ S\n",
         "line 1: duplicate state label"),
        ("states: q\nalphabet: _ A _\ntapes: 1\n", "line 2: duplicate symbol label"),
        ("states: q\nalphabet: _ A\ntapes: 1\nq _ -> q _ S\n",
         "delta is not total: missing ('q', ('A',))"),
        (NO_STATES_TM, "line 1: states line lists no states"),
        (ID_TM + "states: q\n", "bad.tm: line 7: duplicate states line"),
        (ID_TM + "alphabet: _ A\n", "bad.tm: line 7: duplicate alphabet line"),
        (ID_TM + "tapes: 1\n", "bad.tm: line 7: duplicate tapes line"),
    ],
    ids=["no-tapes", "duplicate-state", "duplicate-symbol", "partial-table",
         "no-states", "duplicate-states-line", "duplicate-alphabet-line",
         "duplicate-tapes-line"],
)
def test_run_malformed_machine_exit_2(files, capsys, machine, expected):
    bad = files["dir"] / "bad.tm"
    bad.write_text(machine)
    assert_usage_error(["run", str(bad), files["blank.cfg"]], capsys, "bad.tm", expected)


@pytest.mark.parametrize("command", ["compile", "utm"])
def test_no_states_machine_exit_2(files, capsys, command):
    bad = files["dir"] / "bad.tm"
    bad.write_text(NO_STATES_TM)
    argv = {
        "compile": ["compile", str(bad), "-o", str(files["dir"] / "bad.sec")],
        "utm": ["utm", "--states", "0", "--alphabet", files["alpha.txt"],
                "--code", str(bad)],
    }[command]
    assert_usage_error(argv, capsys, "bad.tm", "states line lists no states")


def test_compile_reserved_marker_symbol_exit_2(files, capsys):
    bad = files["dir"] / "marked.tm"
    bad.write_text(
        "states: q\nalphabet: _ #L\ntapes: 1\nq _ -> q _ S\nq #L -> q _ S\n"
    )
    argv = ["compile", str(bad), "-o", str(files["dir"] / "marked.sec")]
    assert_usage_error(argv, capsys, "reserves '#L'")


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


@pytest.mark.parametrize("lo", [10**12, 10**30])
@pytest.mark.parametrize("command", ["run", "run --smooth", "utm --input"])
def test_far_tape_window_exit_2(files, capsys, command, lo):
    # the head writes A on the blank at cell 0, so the first step would pad
    # the window out to it
    writer = files["dir"] / "writer.tm"
    writer.write_text(LR_TM.replace("q _ -> q _ S", "q _ -> q A S"))

    def argv(cells):
        far = files["dir"] / "far.cfg"
        far.write_text(json.dumps(
            {"state": {"q": 1.0}, "tapes": [{"lo": lo, "cells": cells}]}
        ))
        return {
            "run": ["run", str(writer), str(far)],
            "run --smooth": ["run", str(writer), str(far), "--smooth"],
            "utm --input": ["utm", "--states", "1", "--alphabet", files["alpha.txt"],
                            "--code", str(writer), "--input", str(far)],
        }[command]

    assert_usage_error(argv([{"A": 1.0}]), capsys, "far.cfg", "tapes[0].lo", str(lo + 1))
    # exact blanks trim away, so a far blank window is the blank tape
    assert main(argv([{"_": 1.0}, {"_": 1.0}])) == 0
    captured = capsys.readouterr()
    assert "error" not in captured.err
    assert json.loads(captured.out.splitlines()[0]) == {
        "state": {"q": 1.0}, "tapes": [{"lo": 0, "cells": [{"A": 1.0}]}]
    }


HUGE = str(10**400)  # an integer no float can hold


@pytest.mark.parametrize(
    "config, label",
    [
        ('{"state": {"q": ' + HUGE + '}, "tapes": [' + TAPE + "]}", "state 'q'"),
        ('{"state": {"q": 1.0}, "tapes": [{"cells": [{"A": ' + HUGE + "}]}]}",
         "symbol 'A'"),
    ],
    ids=["state-weight", "cell-weight"],
)
@pytest.mark.parametrize("command", ["run", "run --smooth", "utm --input"])
def test_huge_integer_weight_exit_2(files, capsys, command, config, label):
    bad = files["dir"] / "huge.cfg"
    bad.write_text(config)
    argv = {
        "run": ["run", files["lr.tm"], str(bad)],
        "run --smooth": ["run", files["lr.tm"], str(bad), "--smooth"],
        "utm --input": ["utm", "--states", "1", "--alphabet", files["alpha.txt"],
                        "--code", files["lr.tm"], "--input", str(bad)],
    }[command]
    assert_usage_error(
        argv, capsys, "huge.cfg", f"weight of {label} must be a finite number"
    )
