import numpy as np
import pytest

from smoothtm.dists import FiniteSet
from smoothtm.machines import (
    Configuration,
    FormatError,
    Machine,
    Tape,
    format_machine,
    parse_machine,
    step,
)
from smoothtm.sampling import random_machine, random_point_config


def single_state_machine(rules):
    """1-tape machine over {q} x {_, 1} from {read: (write, dir)}."""
    states = FiniteSet(["q"])
    alphabet = FiniteSet(["_", "1"])
    delta = {
        ("q", (a,)): ("q", (rules[a][0],), (rules[a][1],)) for a in alphabet
    }
    return Machine(states, alphabet, "_", 1, delta)


def oracle_step(m, c):
    """Head-moves-over-absolute-tape oracle, recentred to head at 0."""
    tapes = []
    for t, d_index in zip(c.tapes, range(m.num_tapes)):
        tapes.append({t.lo + j: s for j, s in enumerate(t.cells) if s != t.blank})
    syms = tuple(t.cell(0) for t in c.tapes)
    q2, writes, dirs = m.delta[(c.state, syms)]
    new_tapes = []
    for tape, w, d in zip(tapes, writes, dirs):
        head = 0
        if w != m.blank:
            tape[head] = w
        else:
            tape.pop(head, None)
        head += d
        recentred = {i - head: s for i, s in tape.items()}
        if recentred:
            lo, hi = min(recentred), max(recentred)
            cells = [recentred.get(i, m.blank) for i in range(lo, hi + 1)]
            new_tapes.append(Tape.from_cells(m.blank, lo, cells))
        else:
            new_tapes.append(Tape.blank_tape(m.blank))
    return Configuration(q2, tuple(new_tapes))


def test_fixed_point_machine():
    m = single_state_machine({"_": ("_", 0), "1": ("1", 0)})
    c = Configuration("q", (Tape.blank_tape("_"),))
    assert step(m, c) == c


def test_write_and_move_right():
    m = single_state_machine({"_": ("1", 1), "1": ("1", 1)})
    c = Configuration("q", (Tape.blank_tape("_"),))
    c2 = step(m, c)
    assert c2.tapes[0].cell(-1) == "1"
    assert c2.tapes[0].cell(0) == "_"
    assert c2 == oracle_step(m, c)


def test_two_tape_step():
    states = FiniteSet(["q"])
    alphabet = FiniteSet(["_", "A", "B"])
    delta = {}
    for a in alphabet:
        for b in alphabet:
            delta[("q", (a, b))] = ("q", ("A", "B"), (1, -1))
    m = Machine(states, alphabet, "_", 2, delta)
    c = Configuration("q", (Tape.blank_tape("_"), Tape.blank_tape("_")))
    c2 = step(m, c)
    assert c2.tapes[0].cell(-1) == "A"
    assert c2.tapes[1].cell(1) == "B"
    assert c2 == oracle_step(m, c)


def test_step_agrees_with_oracle_randomized():
    rng = np.random.default_rng(2024)
    for _ in range(100):
        n = int(rng.integers(1, 4))
        m = random_machine(
            rng, num_tapes=n, num_states=int(rng.integers(1, 5)),
            num_symbols=int(rng.integers(2, 5)),
        )
        c, _ = random_point_config(m, rng, radius=2)
        for _ in range(5):
            c2 = step(m, c)
            assert c2 == oracle_step(m, c)
            c = c2


def test_window_grows_at_most_one_per_side():
    rng = np.random.default_rng(5)
    for _ in range(30):
        m = random_machine(rng, num_tapes=2, num_states=3, num_symbols=3)
        c, _ = random_point_config(m, rng, radius=1)
        for _ in range(10):
            c2 = step(m, c)
            for t, t2 in zip(c.tapes, c2.tapes):
                assert t2.lo >= min(t.lo, 0) - 1 and t2.hi <= max(t.hi, 0) + 1
            c = c2


def test_tape_canonical_trim():
    t = Tape.from_cells("_", -2, ["_", "_", "1", "_"])
    assert (t.lo, t.cells) == (0, ("1",))
    t2 = Tape.from_cells("_", -1, ["_", "_", "_"])
    assert (t2.lo, t2.cells) == (0, ("_",))


MACHINE_TEXT = """\
states: q0 q1
alphabet: _ A B
tapes: 2
q0 _ _ -> q1 A B R L
"""


def test_parse_and_format_round_trip():
    # complete the table so parsing yields a total machine
    lines = [MACHINE_TEXT.rstrip()]
    for q in ("q0", "q1"):
        for a in ("_", "A", "B"):
            for b in ("_", "A", "B"):
                if (q, a, b) == ("q0", "_", "_"):
                    continue
                lines.append(f"{q} {a} {b} -> {q} {a} {b} S S")
    text = "\n".join(lines) + "\n"
    m = parse_machine(text)
    assert m.num_tapes == 2 and m.blank == "_"
    assert m.delta[("q0", ("_", "_"))] == ("q1", ("A", "B"), (1, -1))
    m2 = parse_machine(format_machine(m))
    assert m2.delta == m.delta


def test_parse_errors_carry_line():
    with pytest.raises(FormatError, match="line 4"):
        parse_machine("states: q\nalphabet: _\ntapes: 1\nq X -> q _ S\n")
    with pytest.raises(FormatError, match="missing"):
        parse_machine("")
    with pytest.raises(FormatError, match="line 1"):
        parse_machine("q _ -> q _ S\n")


def test_delta_must_be_total():
    states = FiniteSet(["q"])
    alphabet = FiniteSet(["_", "1"])
    with pytest.raises(ValueError, match="total"):
        Machine(states, alphabet, "_", 1, {("q", ("_",)): ("q", ("_",), (0,))})


TWO_TAPE_TEXT = """states: q
alphabet: _ A
tapes: 2
q _ _ -> q A _ R S
q _ A -> q A A R L
q A _ -> q _ A L R
q A A -> q _ _ S S
"""


@pytest.mark.parametrize("source", ["random-1", "random-2", "random-3", "parsed"])
def test_from_arrays_gives_the_same_delta(source):
    """A machine built from another's arrays keeps them read-only and
    builds the same delta from them, on first read."""
    if source == "parsed":
        m = parse_machine(TWO_TAPE_TEXT)
    else:
        n = int(source[-1])
        m = random_machine(np.random.default_rng(n), n, 3, 3)
    a = Machine.from_arrays(
        m.states, m.alphabet, m.blank, m.num_tapes, m.to_q, m.to_w, m.to_d
    )
    assert "delta" not in vars(a)
    assert a.delta == m.delta
    assert repr(list(a.delta.items())) == repr(list(m.delta.items()))
    for got, want in zip((a.to_q, a.to_w, a.to_d), (m.to_q, m.to_w, m.to_d)):
        assert got.dtype == np.intp and not got.flags.writeable
        np.testing.assert_array_equal(got, want)


def test_from_arrays_rejects_bad_arrays():
    m = parse_machine(TWO_TAPE_TEXT)

    def changed(name, at, value):
        arrays = {"to_q": m.to_q, "to_w": m.to_w, "to_d": m.to_d}
        arrays[name] = a = arrays[name].copy()
        a[at] = value
        return Machine.from_arrays(m.states, m.alphabet, m.blank, 2, *arrays.values())

    with pytest.raises(ValueError, match=r"^to_q holds values outside 0\.\.0$"):
        changed("to_q", 3, 1)
    with pytest.raises(ValueError, match=r"^to_w holds values outside 0\.\.1$"):
        changed("to_w", (2, 1), 2)
    with pytest.raises(ValueError, match=r"^to_d holds values outside -1\.\.1$"):
        changed("to_d", (0, 0), -2)
    with pytest.raises(ValueError, match=r"^to_w has dtype int\d+ and shape \(4, 1\), "
                                         r"not an int dtype and shape \(4, 2\)$"):
        Machine.from_arrays(m.states, m.alphabet, m.blank, 2, m.to_q, m.to_w[:, :1],
                            m.to_d)
    with pytest.raises(ValueError, match="^to_q has dtype float64 "):
        Machine.from_arrays(m.states, m.alphabet, m.blank, 2, m.to_q * 1.0, m.to_w,
                            m.to_d)
