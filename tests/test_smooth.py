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
    embed,
    extract_classical,
    format_config,
    machine_ops,
    parse_config,
    psi_update,
    push_local,
    renormalized,
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
        Dist.uniform(states), (SmoothTape.blank_tape(alphabet, "_"),)
    )
    s2 = smooth_step(m, s)
    assert s2.state.allclose(Dist.uniform(states))


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


def test_config_parse_errors():
    from smoothtm.machines import FormatError

    m = lr_machine()
    with pytest.raises(FormatError, match="unknown symbol"):
        parse_config('{"state": {"q": 1.0}, "tapes": [{"lo": 0, "cells": [{"Z": 1.0}]}]}', m)
    with pytest.raises(FormatError, match="JSON"):
        parse_config("{not json", m)
    with pytest.raises(FormatError, match="tapes"):
        parse_config('{"state": {"q": 1.0}, "tapes": []}', m)


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


def random_cell(rng) -> Dist:
    """A mixture, a non-blank point mass or an exact blank."""
    kind = rng.integers(3)
    if kind == 0:
        return Dist(AB_, rng.dirichlet(np.ones(3)))
    return Dist.point(AB_, "A" if kind == 1 else "_")


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
        info = StepInfo([], [d], {})
        assert info.direction_point_mass(0) == (np.count_nonzero(d) == 1)


def test_check_simplex_never_below_full_rescan():
    from smoothtm import multitape
    from smoothtm.engine import section_smooth_step

    rng = np.random.default_rng(11)
    m = random_machine(rng, 2, 2, 3)
    sim = multitape.compile_multitape(m)
    enc = multitape.encode(sim, random_smooth_config(m, rng, radius=2))
    cfg = multitape.to_section_config(sim, enc)
    for _ in range(300):
        cfg, _ = section_smooth_step(cfg)
        exact = abs(cfg.total_mass() - 1.0)
        for v in cfg.state.values():
            exact = max(exact, -v.min())
        for t in cfg.tapes:
            exact = max(exact, np.abs(t.cells.sum(axis=1) - 1.0).max(), -t.cells.min())
        assert exact <= cfg.check_simplex() <= 1e-12


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


@pytest.mark.parametrize(
    "bad, expected",
    [
        ({"A": 0.5, "B": 0.6}, "tapes[0].cells[3]: bad symbol distribution: "
                               "weights sum to 1.1, not 1 within 1e-12"),
        ({"A": -0.5, "B": 1.5}, "tapes[0].cells[3]: bad symbol distribution: "
                                "negative weight -0.5 below -1e-12"),
    ],
)
def test_parse_config_names_first_bad_cell(bad, expected):
    import json

    from smoothtm.machines import FormatError

    m = lr_machine()
    cells = [{"A": 1.0}] * 3 + [bad, {"_": 1.0}, {"A": 0.2}]
    text = json.dumps({"state": {"q": 1.0}, "tapes": [{"cells": cells}]})
    with pytest.raises(FormatError) as exc:
        parse_config(text, m)
    assert str(exc.value) == expected


def test_clean_rows_renormalizes_only_clamped_rows():
    from smoothtm.smooth import clean_rows

    rows = np.array([[0.3, 0.7 + 4e-13], [-2e-13, 1.0 + 2e-13]])
    out = clean_rows(rows)
    assert out[0].tobytes() == rows[0].tobytes()
    assert out[1].tolist() == [0.0, 1.0]


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


def point_run_tape(n: int, lo: int) -> SmoothTape:
    """n point masses of A between two half-blank cells."""
    half = Dist.from_pairs(AB_, {"_": 0.5, "A": 0.5})
    return SmoothTape.from_dists(AB_, "_", lo, [half] + [Dist.point(AB_, "A")] * n + [half])


def random_general_case(rng):
    """(tape, write, dirs) with at least two moves carrying weight."""
    kind = rng.integers(4)
    if kind == 0:  # every new cell an exact blank
        tape, write = SmoothTape.blank_tape(AB_, "_"), BLANK
    elif kind == 1:  # point masses of one symbol: rows that sum to 1 +- an ulp
        n = int(rng.integers(1, 5))
        tape = point_run_tape(n, -int(rng.integers(1, n + 1)))
        write = Dist.point(AB_, "A")
    else:
        cells = [random_cell(rng) for _ in range(int(rng.integers(1, 7)))]
        tape = SmoothTape.from_dists(AB_, "_", int(rng.integers(-8, 9)), cells)
        write = random_cell(rng)
    dirs = rng.dirichlet(np.ones(3))
    if rng.random() < 0.3:
        dirs[rng.integers(3)] = 0.0
        dirs = dirs / dirs.sum()
    return tape, write.weights, dirs


def test_general_superposition_matches_validated_constructor():
    rng = np.random.default_rng(21)
    # the only rows off unit mass here are point masses of A, whose mass
    # 1 - 2^-53 canonicalizes to 1.0, so the exact error is 0.0
    rounded = (point_run_tape(3, -3), Dist.point(AB_, "A").weights,
               np.array([0.5967051270998771, 0.25731448325457446, 0.1459803896455484]))
    assert _superpose_general(*rounded).err == 0.0
    seen = set()
    for tape, write, dirs in [rounded] + [random_general_case(rng) for _ in range(200)]:
        lo2, raw = _reference_superposition(tape, write, dirs)
        want = SmoothTape(AB_, "_", lo2, raw)
        got = _superpose_general(tape, write, dirs)
        assert got.lo == want.lo
        assert got.cells.shape == want.cells.shape
        assert got.cells.tobytes() == want.cells.tobytes()
        assert got.err == want.err == _row_error(got.cells)
        assert not got.cells.flags.writeable
        single = np.count_nonzero(raw, axis=1) == 1
        if (raw[single].max(axis=1) != 1.0).any():
            seen.add("rounded point mass")
        if want.lo == 0 and np.array_equal(want.cells, BLANK.weights[None]):
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


def test_push_local_matches_reference_on_uncertain_codes():
    from smoothtm.sampling import random_dist
    from smoothtm.utm import encode_code, utm_cycle_semantics

    captured = []

    def spy(s, ops):
        captured.append((s, ops))
        return push_local(s, ops)

    rng = np.random.default_rng(12)
    for _ in range(8):
        m = random_machine(rng, 1, int(rng.integers(1, 4)), int(rng.integers(2, 4)))
        overrides = {
            (q, a): (random_dist(m.states, rng), random_dist(m.alphabet, rng),
                     random_dist(DIRECTIONS, rng))
            for q in m.states
            for a in m.alphabet
            if rng.random() < 0.5
        }
        code = encode_code(m, overrides or None)
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
