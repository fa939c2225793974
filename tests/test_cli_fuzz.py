"""Malformed input never produces a traceback.

Valid machine text, configuration JSON, alphabet and overrides JSON files
are mutated by a few character and line edits and run through
``cli.main``.  Every run must
exit 0, or exit 2 with exactly one ``error:`` line; exit 1 (a verification
failure) or an exception is a bug.  The examples are derandomized, so the
test is reproducible.
"""

import contextlib
import io
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from smoothtm.cli import main

MACHINE_1 = """\
states: q p
alphabet: _ A B
tapes: 1
q _ -> p _ S
q A -> q B R
q B -> p A L
p _ -> q A S
p A -> p A R
p B -> q _ L
"""

MACHINE_2 = "\n".join(
    ["states: q", "alphabet: _ A", "tapes: 2"]
    + [f"q {a} {b} -> q {b} {a} R L" for a in "_A" for b in "_A"]
) + "\n"

CONFIG_1 = ('{"state": {"q": 0.5, "p": 0.5}, "tapes": [{"lo": -1, "cells": '
            '[{"A": 0.5, "B": 0.5}, {"_": 0.25, "A": 0.75}, {"B": 1.0}]}]}')

CONFIG_2 = ('{"state": {"q": 1.0}, "tapes": [{"lo": 0, "cells": [{"A": 1.0}, {"_": 1.0}]}, '
            '{"lo": -1, "cells": [{"A": 1}, {"A": 1.0}]}]}')

OVERRIDES = """\
{"q": {"A": {"target": {"q": 0.5, "p": 0.5},
             "write": {"A": 0.25, "B": 0.75},
             "move": {"L": 0.5, "S": 0.25, "R": 0.25}}},
 "p": {"_": {"target": {"p": 1.0},
             "write": {"_": 0.5, "B": 0.5},
             "move": {"R": 1.0}}}}
"""

# per command: the files it reads and the arguments that name them
COMMANDS = {
    "run": ({"m": MACHINE_2, "c": CONFIG_2}, ["run", "{m}", "{c}", "--steps", "3"]),
    "run --smooth": (
        {"m": MACHINE_1, "c": CONFIG_1},
        ["run", "{m}", "{c}", "--smooth", "--steps", "3"],
    ),
    "compile": ({"m": MACHINE_2}, ["compile", "{m}", "-o", "{out}"]),
    "utm": (
        {"m": MACHINE_1, "a": "_ A B\n", "c": CONFIG_1},
        ["utm", "--states", "2", "--alphabet", "{a}", "--code", "{m}",
         "--input", "{c}"],
    ),
    "utm --overrides": (
        {"m": MACHINE_1, "a": "_ A B\n", "o": OVERRIDES},
        ["utm", "--states", "2", "--alphabet", "{a}", "--code", "{m}",
         "--overrides", "{o}"],
    ),
}

# characters the formats give meaning to, and a few they do not
CHARS = "qpAB_#LRS-> {}[]():,./\"\n0123456789.e-xé"


def mutate(data, text: str) -> str:
    """``text`` after one to three edits drawn from ``data``: a character
    deleted, inserted or replaced, or a line dropped, repeated or swapped
    with the next.  With at most three one-character inserts, no number
    grows by more than three digits, so windows stay small."""
    for _ in range(data.draw(st.integers(1, 3), label="edit count")):
        kind = data.draw(st.sampled_from(["delete", "insert", "replace", "line"]))
        if kind == "line":
            lines = text.splitlines(keepends=True)
            i = data.draw(st.integers(0, len(lines) - 1), label="line")
            how = data.draw(st.sampled_from(["drop", "repeat", "swap"]))
            if how == "drop":
                del lines[i]
            elif how == "repeat":
                lines.insert(i, lines[i])
            else:
                j = (i + 1) % len(lines)
                lines[i], lines[j] = lines[j], lines[i]
            text = "".join(lines)
        else:
            i = data.draw(st.integers(0, len(text)), label="position")
            char = "" if kind == "delete" else data.draw(st.sampled_from(CHARS))
            text = text[:i] + char + text[i + (kind != "insert"):]
        if not text:
            break
    return text


def run_cli(argv) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def run_command(command: str, texts: dict) -> tuple[int, str]:
    _, template = COMMANDS[command]
    with tempfile.TemporaryDirectory() as tmp:
        paths = {"out": str(Path(tmp) / "out.sim")}
        for key, text in texts.items():
            paths[key] = str(Path(tmp) / key)
            Path(paths[key]).write_text(text, encoding="utf-8")
        return run_cli([arg.format(**paths) for arg in template])


@pytest.mark.parametrize("command", list(COMMANDS))
def test_unmutated_inputs_exit_0(command):
    code, err = run_command(command, COMMANDS[command][0])
    assert code == 0, err


@pytest.mark.parametrize("command", list(COMMANDS))
@settings(
    derandomize=True, max_examples=100, deadline=None, database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_mutated_inputs_exit_0_or_2_with_one_error_line(command, data):
    texts = dict(COMMANDS[command][0])
    key = data.draw(st.sampled_from(sorted(texts)), label="file")
    texts[key] = mutate(data, texts[key])
    code, err = run_command(command, texts)
    assert code in (0, 2), err
    if code == 2:
        errors = [line for line in err.splitlines() if line.startswith("error:")]
        assert len(errors) == 1, err
