"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import time

import numpy as np
import pytest

from smoothtm.cli import main as cli_main
from smoothtm.dists import Dist, convex_combine, tensor_many
from smoothtm.framework import run_to_next_encoding
from smoothtm.machines import step
from smoothtm.sampling import (
    random_machine,
    random_point_config,
    random_smooth_config,
)
from smoothtm.smooth import (
    extract_classical,
    psi_update,
    smooth_step,
    smooth_step_dists,
    smooth_step_oracle,
)
from smoothtm.utm import (
    build_utm,
    decode_config,
    encode_code,
    encode_config,
    make_triple,
    staged_write_update,
)
from smoothtm.verify import staged_instance, verify_multitape, verify_utm

_reports = {}


def _line(num, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} ({name}): {status} - {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def _simplex_ok(d, tol=1e-12):
    return abs(float(d.weights.sum()) - 1.0) <= tol and d.weights.min() >= 0.0


def test_criterion_1_counterexample_reproduction():
    t0 = time.perf_counter()
    m, s = staged_instance()
    read = s.tapes[0].cell(0)
    staged = staged_write_update(
        read,
        [(0.5, Dist.point(m.alphabet, "A")), (0.5, Dist.point(m.alphabet, "B"))],
    )
    err = max(abs(staged["A"] - 0.375), abs(staged["B"] - 0.625))
    smooth_cell = smooth_step(m, s).tapes[0].cell(0)
    smooth_exact = smooth_cell["A"] == 0.5 and smooth_cell["B"] == 0.5
    utm = build_utm(m.states, m.alphabet, m.blank)
    code = encode_code(m)
    cfg, _ = run_to_next_encoding(make_triple(utm, code), encode_config(utm, code, s))
    utm_cell = decode_config(utm, code, cfg).tapes[0].cell(0)
    utm_exact = utm_cell["A"] == 0.5 and utm_cell["B"] == 0.5
    dt = time.perf_counter() - t0
    ok = err <= 1e-12 and smooth_exact and utm_exact and dt < 1.0
    _line(
        1,
        "counterexample reproduction",
        ok,
        f"staged 0.375/0.625 err={err:.2e}, smooth exact={smooth_exact}, "
        f"utm exact={utm_exact}, {dt:.2f}s",
    )


@pytest.fixture(scope="module")
def oracle_trials():
    rng = np.random.default_rng(20240612)
    trials = []
    for _ in range(500):
        m = random_machine(
            rng, 1, int(rng.integers(1, 5)), int(rng.integers(2, 5))
        )
        s = random_smooth_config(m, rng, radius=int(rng.integers(0, 4)))
        trials.append((m, s, rng.integers(0, 2**31)))
    return trials


def test_criterion_2_oracle_equivalence(oracle_trials):
    t0 = time.perf_counter()
    worst = 0.0
    simplex_bad = 0
    for m, s, _seed in oracle_trials:
        a = smooth_step(m, s)
        b = smooth_step_oracle(m, s)
        worst = max(worst, a.deviation(b))
        if not _simplex_ok(a.state):
            simplex_bad += 1
        for t in a.tapes:
            for i in range(t.lo, t.hi + 1):
                if not _simplex_ok(t.cell(i)):
                    simplex_bad += 1
    dt = time.perf_counter() - t0
    _reports["oracle_simplex_bad"] = simplex_bad
    ok = worst <= 1e-12 and dt < 10.0
    _line(
        2,
        "oracle equivalence",
        ok,
        f"{len(oracle_trials)} trials, max dev={worst:.2e}, {dt:.1f}s",
    )


def test_criterion_3_psi_equality(oracle_trials):
    worst = 0.0
    for m, s, seed in oracle_trials:
        rng = np.random.default_rng(seed)
        local = tensor_many([s.state, s.tapes[0].cell(0)])
        cells = [
            Dist(m.alphabet, rng.dirichlet(np.ones(len(m.alphabet))))
            for _ in range(3)
        ]
        got = psi_update(m, 0, local, *cells)
        _, _, dirs = smooth_step_dists(m, s)
        want = convex_combine(dirs[0], cells)
        worst = max(worst, float(np.abs(got.weights - want.weights).max()))
    ok = worst <= 1e-12
    _line(3, "psi superposition equality", ok, f"max dev={worst:.2e}")


def test_criterion_4_point_mass_degeneracy():
    rng = np.random.default_rng(20240613)
    exact = True
    for _ in range(100):
        n = int(rng.integers(1, 4))
        m = random_machine(
            rng, n, int(rng.integers(1, 5)), int(rng.integers(2, 5))
        )
        c, s = random_point_config(m, rng, radius=2)
        for _ in range(20):
            c = step(m, c)
            s = smooth_step(m, s)
            if extract_classical(m, s) != c:
                exact = False
                break
        if not exact:
            break
    _line(4, "point-mass degeneracy", exact, "100 machines x 20 steps, bit-exact")


def test_criterion_5_multitape_preservation():
    t0 = time.perf_counter()
    report = verify_multitape(trials=25, seed=20240614, tol=1e-9)
    dt = time.perf_counter() - t0
    _reports["multitape"] = report
    ok = report["pass"] and dt < 60.0
    _line(
        5,
        "multitape simulation preserving",
        ok,
        f"25 trials x 3 cycles, max dev={report['max_deviation']:.2e}, {dt:.1f}s",
    )


def test_criterion_6_utm_preservation():
    t0 = time.perf_counter()
    classical = verify_utm(trials=25, seed=20240615, tol=1e-9)
    uncertain = verify_utm(
        trials=25, seed=20240616, tol=1e-9, uncertain_codes=True
    )
    dt = time.perf_counter() - t0
    _reports["utm_classical"] = classical
    _reports["utm_uncertain"] = uncertain
    shuffle_max = max(
        r["shuffle_deviation"]
        for rep in (classical, uncertain)
        for r in rep["results"]
    )
    ok = classical["pass"] and uncertain["pass"] and dt < 60.0
    _line(
        6,
        "pseudo-UTM preserving",
        ok,
        f"25+25 trials, max dev={max(classical['max_deviation'], uncertain['max_deviation']):.2e}, "
        f"shuffle dev={shuffle_max:.2e}, {dt:.1f}s",
    )


def test_criterion_7_simplex_preservation():
    # simplex checks run inside every trial step of criteria 5/6 (violations
    # land in the reports) and over criterion 2's outputs
    assert "multitape" in _reports and "utm_classical" in _reports, (
        "criteria 5/6 must run first"
    )
    simplex_violations = _reports.get("oracle_simplex_bad", 0)
    for rep in (
        _reports["multitape"],
        _reports["utm_classical"],
        _reports["utm_uncertain"],
    ):
        for r in rep["results"]:
            simplex_violations += sum(
                "simplex" in v["violation"] for v in r["violations"]
            )
    ok = simplex_violations == 0
    _line(7, "simplex preservation", ok, f"{simplex_violations} violations")


def test_criterion_8_mutation_sensitivity(tmp_path, capsys):
    broken = cli_main(
        ["verify", "--construction", "broken-multitape", "--trials", "3",
         "--seed", "1", "--report", str(tmp_path / "broken.json")]
    )
    staged = cli_main(
        ["verify", "--construction", "staged-counterexample",
         "--report", str(tmp_path / "staged.json")]
    )
    capsys.readouterr()
    ok = broken != 0 and staged != 0
    _line(
        8,
        "mutation sensitivity",
        ok,
        f"broken-multitape exit={broken}, staged exit={staged} (both nonzero)",
    )
