from unittest import mock

import numpy as np
import pytest

from smoothtm.dists import Dist, FiniteSet, convex_combine, tensor_many
from smoothtm.engine import StepInfo
from smoothtm.machines import DIRECTIONS, Configuration, Machine, Tape, step
from smoothtm.sampling import (
    random_machine,
    random_point_config,
    random_smooth_config,
)
from smoothtm.smooth import (
    SmoothConfig,
    SmoothTape,
    _row_error,
    _superpose_general,
    _vector_sum,
    embed,
    extract_classical,
    format_config,
    machine_ops,
    parse_config,
    psi_update,
    push_local,
    renormalized,
    row_stats,
    smooth_step,
    smooth_step_dists,
    smooth_step_oracle,
    superpose_tape,
)


def lr_machine():
    """Writes back what it reads; blank stays, A goes right, B goes left."""
    states = FiniteSet(["q"])
    alphabet = FiniteSet(["_", "A", "B"])
    delta = {
        ("q", ("_",)): ("q", ("_",), (0,)),
        ("q", ("A",)): ("q", ("A",), (1,)),
        ("q", ("B",)): ("q", ("B",), (-1,)),
    }
    return Machine(states, alphabet, "_", 1, delta)


def identity_machine(symbols=("A", "B")):
    """Single state; writes back the read symbol and stays."""
    states = FiniteSet(["q"])
    alphabet = FiniteSet(("_",) + tuple(symbols))
    delta = {("q", (a,)): ("q", (a,), (0,)) for a in alphabet}
    return Machine(states, alphabet, "_", 1, delta)


def half_ab_config(m):
    cell = Dist.from_pairs(m.alphabet, {"A": 0.5, "B": 0.5})
    tape = SmoothTape.from_dists(m.alphabet, m.blank, 0, [cell])
    return SmoothConfig(Dist.point(m.states, "q"), (tape,))


def test_point_mass_embeds_classical_step():
    rng = np.random.default_rng(42)
    for _ in range(100):
        n = int(rng.integers(1, 4))
        m = random_machine(rng, n, int(rng.integers(1, 5)), int(rng.integers(2, 5)))
        c, s = random_point_config(m, rng, radius=2)
        c2 = step(m, c)
        s2 = smooth_step(m, s)
        # exact: bit-equal point masses
        assert extract_classical(m, s2) == c2
        assert set(np.concatenate([t.cells.reshape(-1) for t in s2.tapes])) <= {0.0, 1.0}
        assert set(s2.state.weights) <= {0.0, 1.0}


def test_lr_machine_half_half():
    m = lr_machine()
    s2 = smooth_step(m, half_ab_config(m))
    assert s2.state.point_value() == "q"
    tape = s2.tapes[0]
    for i in (-1, 1):
        row = tape.cell(i)
        assert row["A"] == pytest.approx(0.25, abs=1e-12)
        assert row["B"] == pytest.approx(0.25, abs=1e-12)
        assert row["_"] == pytest.approx(0.5, abs=1e-12)
    assert tape.cell(0)["_"] == pytest.approx(1.0, abs=1e-12)
    # the scalar oracle is the independent check of the same numbers
    assert s2.deviation(smooth_step_oracle(m, half_ab_config(m))) <= 1e-12


def test_identity_machine_leaves_distribution_unchanged():
    m = identity_machine()
    s = half_ab_config(m)
    s2 = smooth_step(m, s)
    assert s2.deviation(s) == 0.0


def test_oracle_equivalence_randomized():
    rng = np.random.default_rng(7)
    for _ in range(200):
        m = random_machine(rng, 1, int(rng.integers(1, 5)), int(rng.integers(2, 5)))
        s = random_smooth_config(m, rng, radius=int(rng.integers(0, 4)))
        a = smooth_step(m, s)
        b = smooth_step_oracle(m, s)
        assert a.deviation(b) <= 1e-12


def test_oracle_rejects_multitape():
    rng = np.random.default_rng(1)
    m = random_machine(rng, 2, 2, 2)
    s = random_smooth_config(m, rng, radius=1)
    with pytest.raises(ValueError, match="single-tape"):
        smooth_step_oracle(m, s)


def test_uniform_state_permutation_invariance():
    states = FiniteSet(["q0", "q1"])
    alphabet = FiniteSet(["_"])
    delta = {
        ("q0", ("_",)): ("q0", ("_",), (0,)),
        ("q1", ("_",)): ("q1", ("_",), (0,)),
    }
    m = Machine(states, alphabet, "_", 1, delta)
    s = SmoothConfig(
        Dist(states, [0.5, 0.5]), (SmoothTape.blank_tape(alphabet, "_"),)
    )
    s2 = smooth_step(m, s)
    assert s2.state.allclose(Dist(states, [0.5, 0.5]))


def test_psi_update_constant_directions():
    m = identity_machine()
    always_right = Machine(
        m.states,
        m.alphabet,
        "_",
        1,
        {k: (v[0], v[1], (1,)) for k, v in m.delta.items()},
    )
    local = tensor_many(
        [Dist.point(m.states, "q"), Dist.from_pairs(m.alphabet, {"A": 0.5, "B": 0.5})]
    )
    left = Dist.from_pairs(m.alphabet, {"A": 0.7, "_": 0.3})
    center = Dist.from_pairs(m.alphabet, {"B": 0.6, "_": 0.4})
    right = Dist.from_pairs(m.alphabet, {"A": 0.2, "B": 0.8})
    assert psi_update(m, 0, local, left, center, right).allclose(center)
    assert psi_update(always_right, 0, local, left, center, right).allclose(right)


def test_psi_update_matches_lr_cell():
    m = lr_machine()
    s = half_ab_config(m)
    local = tensor_many([s.state, s.tapes[0].cell(0)])
    blank = Dist.point(m.alphabet, "_")
    write = Dist.from_pairs(m.alphabet, {"A": 0.5, "B": 0.5})
    # cell -1 sees written cells (-2, -1, 0) = (blank, blank, write)
    got = psi_update(m, 0, local, blank, blank, write)
    assert got["A"] == pytest.approx(0.25, abs=1e-12)
    assert got["B"] == pytest.approx(0.25, abs=1e-12)
    assert got["_"] == pytest.approx(0.5, abs=1e-12)


def test_psi_update_equals_superposition_randomized():
    rng = np.random.default_rng(13)
    for _ in range(100):
        n = int(rng.integers(1, 3))
        m = random_machine(rng, n, int(rng.integers(1, 4)), int(rng.integers(2, 4)))
        s = random_smooth_config(m, rng, radius=1)
        local = tensor_many([s.state] + [t.cell(0) for t in s.tapes])
        cells = [
            Dist(m.alphabet, rng.dirichlet(np.ones(len(m.alphabet))))
            for _ in range(3)
        ]
        for j in range(n):
            got = psi_update(m, j, local, *cells)
            _, _, dirs = smooth_step_dists(m, s)
            want = convex_combine(dirs[j], cells)
            assert np.abs(got.weights - want.weights).max() <= 1e-12


def test_simplex_and_window_growth():
    rng = np.random.default_rng(23)
    for _ in range(50):
        n = int(rng.integers(1, 4))
        m = random_machine(rng, n, 3, 3)
        s = random_smooth_config(m, rng, radius=2)
        s2 = smooth_step(m, s)
        for t, t2 in zip(s.tapes, s2.tapes):
            assert t2.lo >= min(t.lo, 0) - 1 and t2.hi <= max(t.hi, 0) + 1
            sums = t2.cells.sum(axis=1)
            assert np.abs(sums - 1.0).max() <= 1e-12
            assert t2.cells.min() >= 0.0
        assert abs(s2.state.weights.sum() - 1.0) <= 1e-12


def test_pure_shift_when_direction_certain():
    """Constant move direction over the support: no smudging, bit-exact."""
    states = FiniteSet(["q"])
    alphabet = FiniteSet(["_", "A", "B"])
    delta = {("q", (a,)): ("q", (a,), (1,)) for a in alphabet}
    m = Machine(states, alphabet, "_", 1, delta)
    cell = Dist.from_pairs(alphabet, {"A": 0.375, "B": 0.625})
    tape = SmoothTape.from_dists(alphabet, "_", 0, [cell])
    s2 = smooth_step(m, SmoothConfig(Dist.point(states, "q"), (tape,)))
    out = s2.tapes[0]
    assert out.lo == -1 and out.hi == -1
    assert out.cell(-1)["A"] == 0.375 and out.cell(-1)["B"] == 0.625


def test_blank_cells_outside_window_are_exact():
    m = lr_machine()
    s2 = smooth_step(m, half_ab_config(m))
    t = s2.tapes[0]
    row = t.row(t.hi + 5)
    assert row[t.alphabet.index("_")] == 1.0


def test_config_format_round_trip():
    m = lr_machine()
    s = half_ab_config(m)
    text = format_config(s)
    s2 = parse_config(text, m)
    assert s2.deviation(s) == 0.0


def test_config_format_builds_objects_in_sorted_key_order():
    """The text is what ``sort_keys=True`` would give, also for labels whose
    alphabet order is not their string order and for two that render
    alike, without sorting at dump time."""
    import json

    from smoothtm.smooth import config_obj

    alphabet = FiniteSet(["_", 10, 9, "b", "a", 1, "1"])
    states = FiniteSet(["q", "p", 2, "10"])
    rows = np.random.default_rng(7).dirichlet(np.ones(len(alphabet)), size=4)
    rows[1] = np.eye(len(alphabet))[3]
    tape = SmoothTape(alphabet, "_", -2, rows)
    configs = [SmoothConfig(Dist(states, [0.25, 0.0, 0.5, 0.25]), (tape, tape))]
    rng = np.random.default_rng(8)
    for n in (1, 2, 3):
        m = random_machine(rng, n, 3, 3)
        configs.append(random_smooth_config(m, rng, radius=2))
    for s in configs:
        assert format_config(s) == json.dumps(config_obj(s), sort_keys=True)
        assert list(json.loads(format_config(s))["tapes"][0]) == ["cells", "lo"]


def test_config_parse_errors():
    from smoothtm.machines import FormatError

    m = lr_machine()
    with pytest.raises(FormatError, match="unknown symbol"):
        parse_config('{"state": {"q": 1.0}, "tapes": [{"lo": 0, "cells": [{"Z": 1.0}]}]}', m)
    with pytest.raises(FormatError, match="JSON"):
        parse_config("{not json", m)
    with pytest.raises(FormatError, match="tapes"):
        parse_config('{"state": {"q": 1.0}, "tapes": []}', m)


@pytest.mark.parametrize(
    "text, where",
    [
        ('{"a": 1, "a": 2}', (1, 1)),
        ('{"a": 1, "b": 2, "b": 3, "a": 4}', (1, 1)),  # the first key repeated
        ('{"x": [1, {"b": 1,\n  "c": {"q": 1, "q": 2}}]}', (2, 8)),
        ('{"a": {"b": 1, "b": 2}, "a": 3}', (1, 7)),
        ("[" * 200 + '{"a": 1, "a": 2}' + "]" * 200, (1, 201)),
        # deeper than a recursive scanner goes
        ("[" * 700 + '{"a": 1, "a": 2}' + "]" * 700, (1, 701)),
        # a key's colon after whitespace, an escaped quote, a value like a key
        ('{"k": "a\\":", "b": {"\\u0062": 1,\r\n "b" : 2}}', (1, 20)),
    ],
    ids=["top", "first-repeat", "nested-line-2", "inner-first", "deep", "very-deep", "escapes"],
)
def test_duplicate_key_names_the_object_that_repeats_it(text, where):
    from smoothtm.machines import FormatError
    from smoothtm.smooth import load_json

    with pytest.raises(FormatError) as exc:
        load_json(text)
    assert (exc.value.line, exc.value.column) == where
    key = "q" if "q" in text else "b" if "b" in text else "a"
    assert str(exc.value).endswith(f"invalid JSON: duplicate key {key!r}")


_TAPE = '{"lo": 0, "cells": [{"A": 0.5, "B": 0.5}]}'


@pytest.mark.parametrize(
    "text, expected",
    [
        ('{"state": {"q": 1.0}, "tapes": [' + _TAPE
         + '], "note": {"x": [1, {"y": 2, "y": 3}]}}',
         "line 1, column 96: invalid JSON: duplicate key 'y'"),
        ('{"state": {"q": 1.0}, "tapes": [{"cell": [], "cells": [{"A": 0.5, "A": 0.5}]}]}',
         "line 1, column 56: invalid JSON: duplicate key 'A'"),
        ('{"state": {"q": 1.0, "q": 1.0}, "tapes": [{"cells": [{"Z": 1.0}]}]}',
         "line 1, column 11: invalid JSON: duplicate key 'q'"),
        ('{"state": {"q": 1.0}, "tapes": [{"lo": 0, "lo": 1, "cells": [{"A": 1.0}]}]}',
         "line 1, column 33: invalid JSON: duplicate key 'lo'"),
        ('{"state": {"q": 1.0}, "state": {"q": 1.0}, "tapes": [' + _TAPE + ']}',
         "line 1, column 1: invalid JSON: duplicate key 'state'"),
        ('{"state": {"q": 1.0}, "tapes": [' + _TAPE + ', {"a": 1, "a": 2}]',
         "line 1, column 77: invalid JSON: duplicate key 'a'"),
        ('{"state": {"q": 1.0}, "tapes": [' + _TAPE
         + '], "note": {"x": [1, {"y": 2, "z": "y:3"}]}}', None),
    ],
    ids=["unread-field", "before-unknown-field", "before-unknown-symbol",
         "tape-field", "top", "before-syntax-error", "colon-in-a-string"],
)
def test_parse_config_names_a_repeated_key_first(text, expected):
    """A repeated key anywhere is the error named, before any error of the
    configuration read from the text; a colon inside a string is no key."""
    from smoothtm.machines import FormatError

    if expected is None:
        assert parse_config(text, lr_machine()).tapes[0].lo == 0
        return
    with pytest.raises(FormatError) as exc:
        parse_config(text, lr_machine())
    assert str(exc.value) == expected


def test_parse_config_without_repeated_keys_parses_once():
    """A configuration whose labels hold no colon is read from one plain
    parse, unread fields with objects in them included: the keys counted
    from what was read match the text's colons, so the hook never runs."""
    rng = np.random.default_rng(5)
    m = random_machine(rng, 2, 3, 3)
    text = format_config(random_smooth_config(m, rng, radius=4))
    noted = text[:-1] + ', "note": [{"x": {"y": [1, {}]}}, {"z": "w"}]}'
    with mock.patch("smoothtm.smooth.load_json", side_effect=AssertionError):
        for t in (text, noted):
            assert format_config(parse_config(t, m)) == text


def test_mass_checks_reject_nan():
    from smoothtm.smooth import clean_rows, renormalized

    with pytest.raises(ValueError, match="nan"):
        clean_rows(np.array([[np.nan, 0.5], [0.5, 0.5]]))
    with pytest.raises(ValueError, match="nan"):
        renormalized(np.array([np.nan, 0.5]))


def test_embed_extract_round_trip():
    m = lr_machine()
    c = Configuration("q", (Tape.from_cells("_", -1, ["A", "B", "A"]),))
    assert extract_classical(m, embed(m, c)) == c


AB_ = FiniteSet(["_", "A", "B"])
BLANK = Dist.point(AB_, "_")


def alphabet_of(size: int) -> FiniteSet:
    """The blank and ``size - 1`` letters (``AB_`` for size 3)."""
    return FiniteSet(["_"] + [chr(ord("A") + i) for i in range(size - 1)])


def random_cell(rng, alphabet: FiniteSet = AB_) -> Dist:
    """A mixture, a non-blank point mass or an exact blank."""
    kind = rng.integers(3)
    if kind == 0:
        return Dist(alphabet, rng.dirichlet(np.ones(len(alphabet))))
    return Dist.point(alphabet, "A" if kind == 1 else "_")


def assert_same_tape(got: SmoothTape, want: SmoothTape):
    assert got.lo == want.lo
    assert np.array_equal(got.cells, want.cells)


def assert_fast_path_exact(tape: SmoothTape, write: Dist):
    for d in DIRECTIONS:
        move = Dist.point(DIRECTIONS, d).weights
        # the fast path re-validates no rows
        with mock.patch("smoothtm.smooth.clean_rows", side_effect=AssertionError):
            got = superpose_tape(tape, write.weights, move)
        assert_same_tape(got, _superpose_general(tape, write.weights, move))
        assert got.err >= np.abs(got.cells.sum(axis=1) - 1.0).max()
        assert not got.cells.flags.writeable


def test_point_mass_move_matches_general_superposition():
    rng = np.random.default_rng(5)
    for _ in range(300):
        lo = int(rng.integers(-8, 9))
        cells = [random_cell(rng) for _ in range(int(rng.integers(1, 7)))]
        tape = SmoothTape.from_dists(AB_, "_", lo, cells)
        assert_fast_path_exact(tape, random_cell(rng))


@pytest.mark.parametrize("lo", [3, -1, -5], ids=["left", "inside", "right"])
@pytest.mark.parametrize("write", ["mixture", "point", "blank"])
def test_fast_path_head_positions(lo, write):
    """Head left of, inside and right of a window [lo, lo + 2]."""
    cells = [Dist.from_pairs(AB_, {"A": 0.25, "B": 0.75})] * 3
    tape = SmoothTape.from_dists(AB_, "_", lo, cells)
    w = {
        "mixture": Dist.from_pairs(AB_, {"_": 0.5, "B": 0.5}),
        "point": Dist.point(AB_, "B"),
        "blank": BLANK,
    }[write]
    assert_fast_path_exact(tape, w)


@pytest.mark.parametrize("lo", [0, -3], ids=["left-end", "right-end"])
def test_fast_path_blank_write_trims_window_end(lo):
    """Blanking an end cell trims it and the blank cells behind it."""
    cells = [Dist.point(AB_, "A"), BLANK, BLANK, Dist.point(AB_, "B")]
    tape = SmoothTape.from_dists(AB_, "_", lo, cells)
    assert_fast_path_exact(tape, BLANK)
    out = superpose_tape(tape, BLANK.weights, Dist.point(DIRECTIONS, 0).weights)
    assert len(out.cells) == 1


def test_fast_path_all_blank_tape():
    tape = SmoothTape.blank_tape(AB_, "_")
    assert_fast_path_exact(tape, BLANK)
    assert_fast_path_exact(tape, Dist.point(AB_, "A"))
    # blanking the only non-blank cell gives the canonical blank tape
    lone = SmoothTape.from_dists(AB_, "_", 0, [Dist.point(AB_, "A")])
    out = superpose_tape(lone, BLANK.weights, Dist.point(DIRECTIONS, 1).weights)
    assert out.lo == 0 and np.array_equal(out.cells, tape.cells)


@pytest.mark.parametrize("size", range(2, 13))
def test_fast_path_err_is_row_error_of_written_row(size):
    """The fast path bounds the written row's error by its exact mass error."""
    alphabet = FiniteSet(["_"] + [f"s{k}" for k in range(1, size)])
    blank = SmoothTape.blank_tape(alphabet, "_")
    stay = Dist.point(DIRECTIONS, 0).weights
    rng = np.random.default_rng(size)
    errs = []
    for _ in range(200):
        row = rng.dirichlet(np.ones(size))
        row = row / row.sum()
        out = superpose_tape(blank, row, stay)
        assert out.err == _row_error(row[None])
        errs.append(out.err)
    assert max(errs) > 0.0  # some rows miss unit mass by rounding


def test_subnormal_side_move_takes_general_path():
    """A 5e-324 weight off the main move is not a point-mass move."""
    dirs = np.array([5e-324, 1.0, 0.0])
    tape = SmoothTape.from_dists(AB_, "_", 0, [Dist.point(AB_, "A")])
    with mock.patch(
        "smoothtm.smooth._superpose_general", wraps=_superpose_general
    ) as general:
        superpose_tape(tape, Dist.point(AB_, "B").weights, dirs)
    assert general.call_count == 1
    for d in (dirs, np.array([0.0, 1.0, 0.0]), np.array([0.0, 5e-324, 0.0])):
        info = StepInfo([d], {})
        assert info.direction_point_mass(0) == (np.count_nonzero(d) == 1)


@pytest.mark.parametrize("size", [3, 9])
def test_known_move_superposes_like_read_move(size):
    """Passing the point move's index gives the tape that reading it off the
    direction vector gives, bit for bit, wherever the head is."""
    alphabet = alphabet_of(size)
    rng = np.random.default_rng(60 + size)
    seen = set()
    for _ in range(300):
        width = int(rng.integers(1, 7))
        cells = [random_cell(rng, alphabet) for _ in range(width)]
        tape = SmoothTape.from_dists(alphabet, "_", int(rng.integers(-8, 5)), cells)
        seen.add(
            "left of" if tape.lo > 0 else "right of" if tape.hi < 0
            else "left end" if tape.lo == 0 else "right end" if tape.hi == 0
            else "inside"
        )
        write = random_cell(rng, alphabet).weights
        for k, d in enumerate(DIRECTIONS):
            dirs = Dist.point(DIRECTIONS, d).weights
            got = superpose_tape(tape, write, dirs, k)
            want = superpose_tape(tape, write, dirs)
            assert (got.lo, got.err) == (want.lo, want.err)
            assert got.cells.tobytes() == want.cells.tobytes()
    assert seen == {"left of", "left end", "inside", "right end", "right of"}


def test_rewritten_point_row_keeps_the_cells():
    """A point-mass head row written back as it is (``same``) shifts only
    the window: the tape equals the written one bit for bit wherever the
    head is, the blank tape included, and its cells are not copied."""
    rng = np.random.default_rng(64)
    seen = set()
    tapes = [SmoothTape.blank_tape(AB_, "_")]
    for _ in range(200):
        cells = [random_cell(rng) for _ in range(int(rng.integers(1, 6)))]
        tapes.append(SmoothTape.from_dists(AB_, "_", int(rng.integers(-7, 4)), cells))
    for tape in tapes:
        row = tape.row(0)
        if np.count_nonzero(row) != 1:
            continue
        seen.add("blank" if tape.cells.shape[0] == 1 and row[0] == 1.0
                 else "outside" if tape.lo > 0 or tape.hi < 0 else "inside")
        for k, d in enumerate(DIRECTIONS):
            dirs = Dist.point(DIRECTIONS, d).weights
            got = superpose_tape(tape, row, dirs, k, 0.0, True)
            want = superpose_tape(tape, row.copy(), dirs, k, 0.0)
            assert (got.lo, got.err) == (want.lo, want.err)
            assert got.cells.tobytes() == want.cells.tobytes()
            assert got.cells is tape.cells
    assert seen == {"blank", "outside", "inside"}


def test_renormalized_point_write_keeps_the_cells():
    """A point head whose write ``renormalized`` divided, back to the unit
    row at the symbol the head read, leaves its tape's cells as they are:
    the engine's tape is the one the copying superposition gives, bit for
    bit, and shares the parent's cells."""
    from smoothtm import engine
    from smoothtm.smooth import exact_point_row

    writes = []

    def spy(w, what="distribution"):
        out = renormalized(w, what)
        if what == "write":
            writes.append((out is not w, out))
        return out

    kept = 0
    for cfg in (_compiled_start(1, 12), _compiled_start(2, 11), _compiled_start(3, 13)):
        for _ in range(300):
            writes.clear()
            with mock.patch.object(engine, "renormalized", spy):
                nxt, info = engine.section_smooth_step(cfg)
            for j, (t, got) in enumerate(zip(cfg.tapes, nxt.tapes)):
                divided, w = writes[j]
                ks = np.flatnonzero(t.row(0))
                if not (divided and cfg.err is not None and len(ks) == 1
                        and exact_point_row(w, ks[0])):
                    continue
                want = superpose_tape(t, w.copy(), info.dirs[j])
                assert (got.lo, got.err) == (want.lo, want.err)
                assert got.cells.tobytes() == want.cells.tobytes()
                assert np.shares_memory(got.cells, t.cells)
                kept += 1
            cfg = nxt
    assert kept >= 10, kept


@pytest.mark.parametrize(
    "dirs",
    [
        [np.nan, 1.0, 0.0], [np.nan, 0.0, 0.0], [np.nan, np.nan, np.nan],
        [np.nan, -0.0, 0.0], [-0.0, 1.0, 0.0], [-0.0, -0.0, 1.0],
        [-0.0, -0.0, -0.0], [0.0, 0.0, 0.0], [0.5, 0.5, 0.0],
    ],
)
def test_direction_point_mass_on_nan_and_negative_zero(dirs):
    """Counting zeros answers as counting the weights that are not zero."""
    info = StepInfo([np.array(dirs)], {})
    assert info.direction_point_mass(0) == (sum(c != 0.0 for c in dirs) == 1)


def _compiled_start(n, seed):
    from smoothtm import multitape

    rng = np.random.default_rng(seed)
    m = random_machine(rng, n, 2, 3)
    sim = multitape.compile_multitape(m)
    enc = multitape.encode(sim, random_smooth_config(m, rng, radius=2))
    return multitape.to_section_config(sim, enc)


def _uncertain_utm_start(seed):
    from smoothtm import utm
    from smoothtm.sampling import random_dist

    rng = np.random.default_rng(seed)
    m = random_machine(rng, 1, 3, 3)
    overrides = {
        (q, a): tuple(random_dist(base, rng) for base in (m.states, m.alphabet, DIRECTIONS))
        for q in m.states for a in m.alphabet
    }
    machine = utm.build_utm(len(m.states), m.alphabet, m.blank)
    code = utm.encode_code(m, overrides)
    return utm.encode_config(machine, code, random_smooth_config(m, rng, radius=2))


def _simplex_rescan(cfg) -> float:
    """What ``check_simplex`` reports when it scans the state: mass error,
    negated minimum weight, then each tape's row-error bound."""
    worst = abs(cfg.total_mass() - 1.0)
    for v in cfg.state.values():
        if v.size:
            worst = max(worst, float(max(0.0, -v.min())))
    for t in cfg.tapes:
        worst = max(worst, t.err)
    return worst


def test_check_simplex_never_below_full_rescan():
    from smoothtm.engine import section_smooth_step

    starts = [_compiled_start(1, 12), _compiled_start(2, 11),
              _compiled_start(3, 13), _uncertain_utm_start(14)]
    for cfg in starts:
        assert cfg.err is None
        for _ in range(300):
            cfg, _ = section_smooth_step(cfg)
            # the engine's cached state error is exactly what a scan finds
            assert cfg.err is not None
            assert cfg.check_simplex() == _simplex_rescan(cfg)
            exact = abs(cfg.total_mass() - 1.0)
            for v in cfg.state.values():
                exact = max(exact, -v.min())
            for t in cfg.tapes:
                exact = max(exact, np.abs(t.cells.sum(axis=1) - 1.0).max(), -t.cells.min())
            assert exact <= cfg.check_simplex() <= 1e-12


def test_check_simplex_scans_hand_built_state():
    """Configurations built by hand carry no ``err`` and are still scanned."""
    from dataclasses import replace

    from smoothtm.engine import section_smooth_step

    cfg = _compiled_start(1, 12)
    ((sid, v),) = cfg.state.items()
    negative = v.copy()
    negative[1] += negative[0] + 1e-6
    negative[0] = -1e-6
    cfg_neg = replace(cfg, state={sid: negative})
    assert cfg_neg.err is None
    assert cfg_neg.check_simplex() == _simplex_rescan(cfg_neg) >= 1e-6
    # a step from a state with a negative weight vouches for nothing
    assert section_smooth_step(cfg_neg)[0].err is None
    heavy = replace(cfg, state={sid: v * (1.0 + 1e-9)})
    assert heavy.check_simplex() == _simplex_rescan(heavy) >= 0.9e-9


def _reference_tape_rows(cells, alphabet):
    """Rows as one Dist per cell builds them, the path the parser used to take."""
    dists = [Dist.from_pairs(alphabet, {a: c.get(str(a), 0.0) for a in alphabet})
             for c in cells]
    return SmoothTape.from_dists(alphabet, "_", 0, dists).cells


@pytest.mark.parametrize("seed", range(6))
def test_parse_config_matches_per_cell_dists(seed):
    import json

    rng = np.random.default_rng(seed)
    m = random_machine(rng, 1, 2, 4)
    labels = [str(a) for a in m.alphabet]
    cells = []
    for _ in range(int(rng.choice([1, 7, 1200]))):
        w = rng.dirichlet(np.ones(len(labels)))
        kind = rng.integers(4)
        if kind == 0:
            w = np.eye(len(labels))[rng.integers(len(labels))]
        elif kind == 1:  # a tiny negative, clamped and its row renormalized
            w[1] += w[0] + 3e-13
            w[0] = -3e-13
        elif kind == 2:  # rounding-level mass error, kept as is
            w[0] += 4e-13
        cells.append({lab: float(x) for lab, x in zip(labels, w) if x != 0.0})
    text = json.dumps({"state": {"q0": 1.0}, "tapes": [{"lo": 0, "cells": cells}]})
    got = parse_config(text, m).tapes[0].cells
    want = _reference_tape_rows(cells, m.alphabet)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


BAD_CELLS = [
    ({"A": 0.5, "B": 0.6}, "tapes[0].cells[3]: bad symbol distribution: "
                           "weights sum to 1.1, not 1 within 1e-12"),
    ({"A": -0.5, "B": 1.5}, "tapes[0].cells[3]: bad symbol distribution: "
                            "negative weight -0.5 below -1e-12"),
    ({"A": 0.5, "Z": 0.5}, "tapes[0].cells[3]: unknown symbol 'Z'"),
    ({"A": 0.5, "B": True}, "tapes[0].cells[3]: weight of symbol 'B' must be "
                            "a finite number, got True"),
    ({"A": 0.5, "B": "0.5"}, "tapes[0].cells[3]: weight of symbol 'B' must be "
                             "a finite number, got '0.5'"),
    ({"A": 0.5, "B": float("nan")}, "tapes[0].cells[3]: weight of symbol 'B' "
                                    "must be a finite number, got nan"),
    ([0.5], "tapes[0].cells[3] must be an object, got [0.5]"),
    # an int weight is read, so the first bad cell is the last one
    ({"A": 1}, "tapes[0].cells[5]: bad symbol distribution: "
               "weights sum to 0.2, not 1 within 1e-12"),
]


def _first_bad_cell_error(cells):
    import json

    from smoothtm.machines import FormatError

    text = json.dumps({"state": {"q": 1.0}, "tapes": [{"cells": cells}]})
    with pytest.raises(FormatError) as exc:
        parse_config(text, lr_machine())
    return str(exc.value)


@pytest.mark.parametrize("bad, expected", BAD_CELLS)
def test_parse_config_names_first_bad_cell(bad, expected):
    cells = [{"A": 1.0}] * 3 + [bad, {"_": 1.0}, {"A": 0.2}]
    assert _first_bad_cell_error(cells) == expected


@pytest.mark.parametrize("bad, expected", BAD_CELLS)
def test_parse_config_names_first_bad_cell_before_a_later_one(bad, expected):
    # the last cell's unknown label comes after the first bad cell, so it
    # must not be the one reported
    cells = [{"A": 1.0}] * 3 + [bad, {"_": 1.0}, {"A": 0.2}, {"Z": 1.0}]
    assert _first_bad_cell_error(cells) == expected


def test_int_weights_fill_the_rows_in_one_assignment():
    from smoothtm.smooth import _fill_rows

    index = {"_": 0, "A": 1, "B": 2}
    rows = np.zeros((2, 3))
    assert _fill_rows(rows, [{"A": 1}, {"A": 0.5, "B": 0}], index)
    assert rows.tolist() == [[0.0, 1.0, 0.0], [0.0, 0.5, 0.0]]
    for weight in (True, 10**400, float("inf")):  # left to the per-cell reader
        assert not _fill_rows(np.zeros((1, 3)), [{"A": weight}], index)


def test_parse_config_reads_int_weights():
    import json

    m = lr_machine()
    cells = [{"A": 1.0}, {"A": 1, "B": 0}, {"A": 0.5, "B": 0.5}, {"_": 0, "B": 1}]
    text = json.dumps({"state": {"q": 1}, "tapes": [{"lo": -1, "cells": cells}]})
    s = parse_config(text, m)
    assert s.tapes[0].lo == -1
    assert s.tapes[0].cells.tolist() == [
        [0.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.5, 0.5], [0.0, 0.0, 1.0]
    ]


def test_clean_rows_renormalizes_only_clamped_rows():
    from smoothtm.smooth import clean_rows

    rows = np.array([[0.3, 0.7 + 4e-13], [-2e-13, 1.0 + 2e-13]])
    out = clean_rows(rows)
    assert out[0].tobytes() == rows[0].tobytes()
    assert out[1].tolist() == [0.0, 1.0]


def _random_rows(rng, n: int, size: int) -> np.ndarray:
    """Simplex rows over ``size`` symbols, scaled from subnormal to huge,
    with about a third of the weights exact zeros or subnormals."""
    rows = rng.dirichlet(np.ones(size), n) * 10.0 ** rng.integers(-310, 300, (n, 1))
    rows[rng.random(rows.shape) < 0.2] = 0.0
    tiny = rng.random(rows.shape) < 0.1
    rows[tiny] = rng.random(int(tiny.sum())) * 2.0**-1022
    return rows


@pytest.mark.parametrize("size", range(1, 13))
def test_row_stats_equal_numpy_axis_reductions(size):
    """Fails first if numpy's order for summing a short row ever changes."""
    rng = np.random.default_rng(size)
    rows = _random_rows(rng, 5000, size)
    assert (rows == 0.0).any() and ((rows > 0.0) & (rows < 2.0**-1022)).any()
    for block in (rows, np.asfortranarray(rows), rows[100:200], rows[:0]):
        sums, nonzero = row_stats(block)
        assert sums.tobytes() == block.sum(axis=1).tobytes()
        assert np.array_equal(nonzero, np.count_nonzero(block, axis=1))


@pytest.mark.parametrize("size", range(1, 21))
def test_vector_sum_is_ndarray_sum(size):
    rng = np.random.default_rng(80 + size)
    for v in _random_rows(rng, 500, size):
        assert np.float64(_vector_sum(v)).tobytes() == v.sum().tobytes()


@pytest.mark.parametrize("size", [*range(1, 8), 8, 11])
def test_short_vector_sums_equal_numpy_reduction(size):
    """renormalized and the point-move tape err take np.add.reduce's sum bit
    for bit: folded in Python floats under 8 entries, reduced by numpy from
    8 up.  Raw rows span magnitudes and miss unit mass; rescaled ones land
    within 1e-12 of it, some off by rounding."""
    rng = np.random.default_rng(40 + size)
    raw = _random_rows(rng, 2000, size)
    bump = np.flatnonzero(rng.random(len(raw)) < 0.5)
    raw[bump, 0] += rng.random(bump.size) * 10.0 ** rng.integers(-30, 3, bump.size)
    assert (raw == 0.0).any() and ((raw > 0.0) & (raw < 2.0**-1022)).any()
    sums = np.add.reduce(raw, axis=1)
    scaled = raw[sums > 0.0] / sums[sums > 0.0, None]
    alphabet = FiniteSet(["_"] + [f"s{k}" for k in range(1, size)])
    blank = SmoothTape.blank_tape(alphabet, "_")
    stay = Dist.point(DIRECTIONS, 0).weights
    near = 0
    for v in [*raw, *scaled]:
        v = v.copy()
        total = float(np.add.reduce(v))
        assert superpose_tape(blank, v, stay).err == abs(total - 1.0)
        if abs(total - 1.0) <= 1e-12:
            near += 1
            want = v if total == 1.0 else v / total
            assert renormalized(v).tobytes() == want.tobytes()
        else:
            with pytest.raises(ValueError) as exc:
                renormalized(v, "write")
            assert str(exc.value).startswith(f"write mass {total} off 1")
    assert near >= len(scaled)


def test_tape_deviation_matches_per_cell_definition():
    """One pass over both windows padded to their union gives the per-cell
    maximum, for overlapping, nested and disjoint windows."""
    rng = np.random.default_rng(37)
    alphabet = FiniteSet(["_", "A", "B"])

    def tape(lo, width):
        cells = rng.dirichlet(np.ones(3), width)
        cells[rng.random(width) < 0.3] = [0.0, 1.0, 0.0]
        return SmoothTape(alphabet, "_", lo, cells)

    def per_cell(a, b):
        lo, hi = min(a.lo, b.lo), max(a.hi, b.hi)
        return max(float(np.abs(a.row(i) - b.row(i)).max()) for i in range(lo, hi + 1))

    shapes = [((-2, 5), (1, 4)), ((-3, 8), (-1, 2)), ((-6, 2), (3, 3)), ((0, 1), (0, 1))]
    shapes += [tuple((int(rng.integers(-6, 7)), int(rng.integers(1, 7))) for _ in "ab")
               for _ in range(200)]
    for (lo_a, w_a), (lo_b, w_b) in shapes:
        a, b = tape(lo_a, w_a), tape(lo_b, w_b)
        assert a.deviation(b) == per_cell(a, b) == b.deviation(a)
        assert a.deviation(a) == 0.0
    blank = SmoothTape.blank_tape(alphabet, "_")
    assert blank.deviation(a) == per_cell(blank, a)
    other = SmoothTape.blank_tape(FiniteSet(["_", "A"]), "_")
    with pytest.raises(ValueError, match="tapes over different alphabets"):
        blank.deviation(other)


def _reference_superposition(tape: SmoothTape, write, dirs):
    """The general superposition summed into a zeros buffer, term by term in
    DIRECTIONS order, as (lo, raw rows) before any validation."""
    lo2, hi2 = min(tape.lo, 0) - 1, max(tape.hi, 0) + 1

    def written(i):
        return write if i == 0 else tape.row(i)

    out = np.zeros((hi2 - lo2 + 1, len(tape.alphabet)))
    for c, d in zip(dirs.tolist(), DIRECTIONS.elements):
        if c != 0.0:
            out += c * np.array([written(i + d) for i in range(lo2, hi2 + 1)])
    return lo2, out


def point_run_tape(n: int, lo: int, alphabet: FiniteSet = AB_) -> SmoothTape:
    """n point masses of A between two half-blank cells."""
    half = Dist.from_pairs(alphabet, {"_": 0.5, "A": 0.5})
    cells = [half] + [Dist.point(alphabet, "A")] * n + [half]
    return SmoothTape.from_dists(alphabet, "_", lo, cells)


def random_general_case(rng, alphabet: FiniteSet = AB_):
    """(tape, write, dirs) with at least two moves carrying weight."""
    kind = rng.integers(4)
    if kind == 0:  # every new cell an exact blank
        tape = SmoothTape.blank_tape(alphabet, "_")
        write = Dist.point(alphabet, "_")
    elif kind == 1:  # point masses of one symbol: rows that sum to 1 +- an ulp
        n = int(rng.integers(1, 5))
        tape = point_run_tape(n, -int(rng.integers(1, n + 1)), alphabet)
        write = Dist.point(alphabet, "A")
    else:
        cells = [random_cell(rng, alphabet) for _ in range(int(rng.integers(1, 7)))]
        tape = SmoothTape.from_dists(alphabet, "_", int(rng.integers(-8, 9)), cells)
        write = random_cell(rng, alphabet)
    dirs = rng.dirichlet(np.ones(3))
    if rng.random() < 0.3:
        dirs[rng.integers(3)] = 0.0
        dirs = dirs / dirs.sum()
    return tape, write.weights, dirs


def test_general_superposition_matches_validated_constructor():
    # the only rows off unit mass here are point masses of A, whose mass
    # 1 - 2^-53 canonicalizes to 1.0, so the exact error is 0.0
    rounded = (point_run_tape(3, -3), Dist.point(AB_, "A").weights,
               np.array([0.5967051270998771, 0.25731448325457446, 0.1459803896455484]))
    assert _superpose_general(*rounded).err == 0.0
    # both sides of the 8-symbol switch in row_stats
    for size in range(2, 13):
        alphabet = alphabet_of(size)
        blank = Dist.point(alphabet, "_").weights
        rng = np.random.default_rng(21 if size == 3 else size)
        cases = [random_general_case(rng, alphabet) for _ in range(200)]
        seen = set()
        for tape, write, dirs in [rounded] * (size == 3) + cases:
            lo2, raw = _reference_superposition(tape, write, dirs)
            want = SmoothTape(alphabet, "_", lo2, raw)
            got = _superpose_general(tape, write, dirs)
            assert got.lo == want.lo
            assert got.cells.shape == want.cells.shape
            assert got.cells.tobytes() == want.cells.tobytes()
            assert got.err == want.err == _row_error(got.cells)
            assert got.err == np.abs(got.cells.sum(axis=1) - 1.0).max()
            assert not got.cells.flags.writeable
            single = np.count_nonzero(raw, axis=1) == 1
            if (raw[single].max(axis=1) != 1.0).any():
                seen.add("rounded point mass")
            if want.lo == 0 and np.array_equal(want.cells, blank[None]):
                seen.add("all blank")
            elif want.lo > lo2 or want.hi < lo2 + len(raw) - 1:
                seen.add("trimmed end")
            if (dirs == 0.0).any():
                seen.add("zero direction")
        assert seen == {"rounded point mass", "all blank", "trimmed end", "zero direction"}


@pytest.mark.parametrize(
    "write, dirs, message",
    [
        ([0.2, 0.3, 0.5 + 1e-9], [0.25, 0.5, 0.25], "off the simplex"),
        ([-1e-13, 0.5 + 1e-13, 0.5], [0.25, 0.5, 0.25], "negative write weight"),
        ([0.2, 0.3, 0.5], [-0.25, 0.75, 0.5], "negative direction weight"),
        ([0.2, 0.3, 0.5], [0.0, 0.0, 0.0], "off the simplex"),
    ],
    ids=["write-mass", "write-negative", "direction-negative", "no-move"],
)
def test_general_superposition_rejects_bad_inputs(write, dirs, message):
    tape = SmoothTape.from_dists(AB_, "_", 0, [Dist.from_pairs(AB_, {"A": 0.5, "B": 0.5})])
    with pytest.raises(ValueError, match=message):
        _superpose_general(tape, np.array(write), np.array(dirs))


@pytest.mark.parametrize("what", ["write", "direction"])
@pytest.mark.parametrize(
    "v",
    [
        [np.nan, -0.25, 1.25],
        [-0.25, np.nan, 1.25],
        [0.5, -0.25, 0.75],
        [-0.0, 0.25, 0.75],
        [np.nan, np.nan, np.nan],
    ],
    ids=["nan-then-negative", "negative-then-nan", "negative", "negative-zero", "nan-only"],
)
def test_general_superposition_reads_signs_as_numpy_does(what, v):
    """A weight vector is rejected as negative exactly when numpy's
    ``v.min() < 0.0``: a NaN makes that minimum NaN, so a vector holding
    one is never named negative (its rows fail the simplex check), and
    -0.0 is not negative."""
    tape = SmoothTape.from_dists(AB_, "_", 0, [Dist.from_pairs(AB_, {"A": 0.5, "B": 0.5})])
    v, other = np.array(v), np.array([0.25, 0.5, 0.25])
    write, dirs = (v, other) if what == "write" else (other, v)
    if v.min() < 0.0:
        with pytest.raises(ValueError) as exc:
            _superpose_general(tape, write, dirs)
        assert str(exc.value) == f"negative {what} weight {v.min()}"
    elif np.isnan(v).any():
        with pytest.raises(ValueError, match="off the simplex by nan"):
            _superpose_general(tape, write, dirs)
    else:
        out = _superpose_general(tape, write, dirs)
        assert out.err <= 1e-15 and not (out.cells < 0.0).any()


def _reference_push(s: SmoothConfig, ops: dict):
    """The step's distributions from a validated Dist joint pushed through
    ``LinearOp.__call__``."""
    local = tensor_many([s.state] + [t.cell(0) for t in s.tapes])

    def pushed(op, what):
        d = op(local)
        return Dist(d.base, renormalized(d.weights, what))

    return (
        pushed(ops["state"], "state"),
        [pushed(op, "write") for op in ops["write"]],
        [pushed(op, "direction") for op in ops["dir"]],
    )


def assert_push_matches_reference(s: SmoothConfig, ops: dict):
    got, want = push_local(s, ops), _reference_push(s, ops)
    got = [got[0], *got[1], *got[2]]
    want = [want[0], *want[1], *want[2]]
    assert len(got) == len(want) == 1 + 2 * len(s.tapes)
    for g, w in zip(got, want):
        assert g.base == w.base
        assert g.weights.tobytes() == w.weights.tobytes()
        assert not g.weights.flags.writeable


@pytest.mark.parametrize("tapes", [1, 2, 3])
def test_push_local_matches_validated_reference(tapes):
    rng = np.random.default_rng(30 + tapes)
    for trial in range(12):
        m = random_machine(rng, tapes, int(rng.integers(1, 4)), int(rng.integers(2, 4)))
        if trial % 3 == 0:
            _, s = random_point_config(m, rng, radius=1)
        else:
            s = random_smooth_config(m, rng, radius=int(rng.integers(0, 3)))
        ops = machine_ops(m)
        for _ in range(3):  # the steps move the heads about the windows
            assert_push_matches_reference(s, ops)
            s = smooth_step(m, s)


def _folded_push(s: SmoothConfig, columns: list) -> list[np.ndarray]:
    """Each component of the step as a Python fold: ``columns[p][k]`` is
    the weight list that the p-th (state, read symbols) pair sends its joint
    mass to under component k (state, writes, then moves).  The products are
    added left to right from 0.0 in domain order, then renormalized."""
    local = tensor_many([s.state] + [t.cell(0) for t in s.tapes]).weights.tolist()
    out = []
    for k in range(len(columns[0])):
        acc = [0.0] * len(columns[0][k])
        for p, cols in zip(local, columns):
            for i, c in enumerate(cols[k]):
                acc[i] += c * p
        out.append(renormalized(np.array(acc), "folded"))
    return out


def _assert_push_is_folded(s: SmoothConfig, ops: dict, columns: list):
    state, writes, dirs = push_local(s, ops)
    got = [state, *writes, *dirs]
    want = _folded_push(s, columns)
    assert len(got) == len(want) == 1 + 2 * len(s.tapes)
    for g, w in zip(got, want):
        assert g.weights.tobytes() == w.tobytes()


@pytest.mark.parametrize("tapes", [1, 2, 3])
def test_push_local_adds_in_domain_order(tapes):
    """One summation order on every host: each component equals, bit for
    bit, the left-to-right fold of the joint over the (state, read symbols)
    pairs in domain order, with delta read pair by pair."""
    from itertools import product

    def onehot(base, x):
        return [float(y == x) for y in base.elements]

    rng = np.random.default_rng(70 + tapes)
    for _ in range(8):
        m = random_machine(rng, tapes, int(rng.integers(1, 4)), int(rng.integers(2, 4)))
        columns = []
        for q in m.states:
            for syms in product(m.alphabet.elements, repeat=tapes):
                q2, ws, ds = m.delta[(q, syms)]
                columns.append([
                    onehot(m.states, q2),
                    *(onehot(m.alphabet, w) for w in ws),
                    *(onehot(DIRECTIONS, d) for d in ds),
                ])
        s = random_smooth_config(m, rng, radius=int(rng.integers(0, 3)))
        for _ in range(3):
            _assert_push_is_folded(s, machine_ops(m), columns)
            s = smooth_step(m, s)


def test_push_local_adds_in_domain_order_on_uncertain_codes():
    from smoothtm.sampling import random_overrides
    from smoothtm.utm import encode_code, utm_cycle_semantics

    rng = np.random.default_rng(13)
    for _ in range(8):
        m = random_machine(rng, 1, int(rng.integers(1, 4)), int(rng.integers(2, 4)))
        code = encode_code(m, random_overrides(m, rng))
        table = code.lookup()
        columns = [
            [d.weights.tolist() for d in table[q, a]] for q in m.states for a in m.alphabet
        ]
        s = random_smooth_config(m, rng, radius=int(rng.integers(0, 3)))
        for _ in range(3):
            _assert_push_is_folded(s, code.ops, columns)
            s = utm_cycle_semantics(code, s)


def test_push_local_matches_reference_on_uncertain_codes():
    from smoothtm.sampling import random_overrides
    from smoothtm.utm import encode_code, utm_cycle_semantics

    captured = []

    def spy(s, ops):
        captured.append((s, ops))
        return push_local(s, ops)

    rng = np.random.default_rng(12)
    for _ in range(8):
        m = random_machine(rng, 1, int(rng.integers(1, 4)), int(rng.integers(2, 4)))
        code = encode_code(m, random_overrides(m, rng))
        s = random_smooth_config(m, rng, radius=int(rng.integers(0, 3)))
        with mock.patch("smoothtm.utm.push_local", spy):
            for _ in range(3):
                s = utm_cycle_semantics(code, s)
    assert len(captured) == 24
    for s, ops in captured:
        assert_push_matches_reference(s, ops)


def test_push_local_rejects_ops_over_another_domain():
    m = lr_machine()
    # same shapes, another state label: the matrices would multiply silently
    relabeled = Machine(
        FiniteSet(["p"]), m.alphabet, m.blank, 1,
        {("p", syms): ("p", w, d) for (_, syms), (_, w, d) in m.delta.items()},
    )
    s = embed(m, Configuration("q", (Tape.from_cells("_", 0, ["A"]),)))
    for other in (relabeled, random_machine(np.random.default_rng(0), 1, 2, 3)):
        with pytest.raises(ValueError, match="operator domain"):
            push_local(s, machine_ops(other))


def test_machine_ops_build_no_joint_tuples():
    """The operators' joint domain is known by its factors: building them
    and stepping through them lists no (state, symbols) tuple, and the
    domain still equals the listed product."""
    from smoothtm.dists import product_set

    rng = np.random.default_rng(9)
    m = random_machine(rng, 3, 3, 3)
    ops = machine_ops(m)
    domain = ops["state"].domain
    push_local(random_smooth_config(m, rng, radius=1), ops)
    with pytest.raises(AttributeError):
        FiniteSet.elements.__get__(domain)  # the slot was never filled
    assert len(domain) == 3 * 3**3
    listed = FiniteSet(product_set(m.states, *[m.alphabet] * 3).elements)
    assert domain == listed and listed == domain


def test_push_local_checks_joint_mass():
    """Factors each within 1e-12 of unit mass can multiply to a joint that
    is not; the joint's one mass check catches it as the Dist chain did."""
    rng = np.random.default_rng(4)
    m = random_machine(rng, 2, 2, 3)
    heavy = np.array([0.25, 0.25, 0.5 + 9e-13])
    tape = SmoothTape(m.alphabet, m.blank, 0, heavy[None])
    s = SmoothConfig(Dist(m.states, [0.5, 0.5 + 9e-13]), (tape, tape))
    for push in (push_local, _reference_push):
        with pytest.raises(ValueError):
            push(s, machine_ops(m))
    with pytest.raises(ValueError, match="local joint mass"):
        push_local(s, machine_ops(m))
