"""Command-line interface.

Subcommands: run (classical or smooth stepping with optional trace),
compile (multitape machine to single-tape simulator), utm (build, run and
check the pseudo-universal machine), verify (randomized preservation
campaigns).  Exit codes: 0 success, 1 verification failure, 2 usage or
parse errors.  The compiler, the UTM and the campaigns are imported by the
commands that use them, so ``run`` loads none of them.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys

from .dists import Dist
from .framework import check_preserving, env_step_bound
from .machines import DIRECTIONS, FormatError, parse_machine
from .smooth import (
    SmoothConfig,
    SmoothTape,
    apply_step,
    config_obj,
    dist_from_obj,
    dist_obj,
    extract_classical,
    format_config,
    json_field,
    json_value,
    load_json,
    parse_config,
    smooth_step_dists,
)


class CliError(Exception):
    """A usage or input error; the command exits 2."""


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise CliError(f"cannot read {path}: not UTF-8 text") from None


@contextlib.contextmanager
def _output(path: str):
    """``path`` open for writing; a failure to open or write it exits 2."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            yield fh
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc.strerror}") from None


def _write(path: str, text: str) -> None:
    with _output(path) as fh:
        fh.write(text)


def _load(path: str, parse, *args):
    """``parse(text of path, *args)``; a format error exits 2 naming ``path``."""
    try:
        return parse(_read(path), *args)
    except FormatError as exc:
        raise CliError(f"{path}: {exc}") from None


def _require_positive(option: str, value: int) -> None:
    if value < 1:
        raise CliError(f"{option} must be a positive count, got {value}")


def _require_tolerance(value: float) -> None:
    if not (math.isfinite(value) and value >= 0.0):
        raise CliError(f"--tol must be a finite number >= 0, got {value}")


def _check_environment() -> None:
    try:
        env_step_bound()
    except ValueError as exc:
        raise CliError(str(exc)) from None


def _trace_record(step: int, s: SmoothConfig, dirs) -> str:
    rec = {
        "step": step,
        **config_obj(s),
        "direction": [dist_obj(d.base, d.weights) for d in dirs],
    }
    return json.dumps(rec, sort_keys=True)


def cmd_run(args) -> int:
    _require_positive("--steps", args.steps)
    m = _load(args.machine, parse_machine)
    s = _load(args.config, parse_config, m)
    if not args.smooth:
        try:
            extract_classical(m, s)
        except ValueError:
            raise CliError(
                "configuration carries uncertainty; pass --smooth to run the "
                "smooth relaxation"
            ) from None
    with _output(args.trace) if args.trace else contextlib.nullcontext() as trace:
        for k in range(args.steps):
            state, writes, dirs = smooth_step_dists(m, s)
            s = apply_step(s, state, writes, dirs)
            if trace is not None:
                trace.write(_trace_record(k + 1, s, dirs) + "\n")
    print(format_config(s))
    return 0


def cmd_compile(args) -> int:
    from . import multitape
    from .sections import format_section_machine

    m = _load(args.machine, parse_machine)
    try:
        sim = multitape.compile_multitape(m)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    meta = multitape.metadata(sim)
    _write(args.output, format_section_machine(sim.machine, meta))
    print(
        f"compiled {args.machine}: {meta['sections']} sections, "
        f"{meta['states']} states, cycle length "
        f"{meta['cycle_length_base']} + {meta['cycle_length_per_width']}*(R-L)"
    )
    return 0


def _overrides_from_json(text: str, m) -> dict:
    """``{state: {symbol: {"target": dist, "write": dist, "move": dist}}}``
    as :func:`utm.encode_code`'s overrides; every error names its JSON path."""
    fields = {"target": (m.states, "state"), "write": (m.alphabet, "symbol"),
              "move": (DIRECTIONS, "move")}
    out = {}
    for q, row in json_value(load_json(text), dict, "overrides").items():
        if q not in m.states:
            raise FormatError(f"overrides: unknown state {q!r}")
        for a, entry in json_value(row, dict, q).items():
            if a not in m.alphabet:
                raise FormatError(f"{q}: unknown symbol {a!r}")
            path = f"{q}.{a}"
            for key in json_value(entry, dict, path):
                if key not in fields:
                    raise FormatError(f"{path}: unknown field {key!r}")
            out[(q, a)] = tuple(
                dist_from_obj(json_field(entry, key, dict, path), base,
                              f"{path}.{key}", what)
                for key, (base, what) in fields.items()
            )
    return out


def cmd_utm(args) -> int:
    from . import utm as utm_mod

    _require_positive("--cycles", args.cycles)
    _require_tolerance(args.tol)
    m = _load(args.code, parse_machine)
    alphabet_tokens = _read(args.alphabet).split()
    if not alphabet_tokens:
        raise CliError(f"{args.alphabet}: alphabet file lists no symbols")
    if (
        len(m.states) != args.states
        or tuple(alphabet_tokens) != tuple(str(x) for x in m.alphabet.elements)
    ):
        raise CliError(
            "code does not match the build parameters: size mismatch "
            f"(code has {len(m.states)} states over {len(m.alphabet)} symbols)"
        )
    if m.num_tapes != 1:
        raise CliError("the universal machine simulates single-tape machines")
    overrides = None
    if args.overrides:
        overrides = _load(args.overrides, _overrides_from_json, m)
    machine = utm_mod.build_utm(m.states, m.alphabet, m.blank)
    code = utm_mod.encode_code(m, overrides)
    if args.input:
        s = _load(args.input, parse_config, m)
    else:
        s = SmoothConfig(
            Dist.point(m.states, m.states.elements[0]),
            (SmoothTape.blank_tape(m.alphabet, m.blank),),
        )
    x0 = utm_mod.encode_config(machine, code, s)
    res = check_preserving(utm_mod.make_triple(machine, code), x0, cycles=args.cycles)
    if res.violations:
        first = res.violations[0]
        print(f"FAIL: step {first['step']}: {first['violation']}", file=sys.stderr)
        return 1
    dev = res.max_deviation
    print(format_config(res.outputs[-1]))
    print(
        f"cycles: {args.cycles}, cycle length: {machine.cycle_length()}, "
        f"max deviation vs direct semantics: {dev:.3e}",
        file=sys.stderr,
    )
    if dev > args.tol:
        print(f"FAIL: deviation {dev} exceeds {args.tol}", file=sys.stderr)
        return 1
    return 0


# verify's constructions: name -> the campaign it runs, given the verify
# module and the parsed options
CAMPAIGNS = {
    "multitape": lambda verify, args: verify.verify_multitape(
        trials=args.trials, seed=args.seed, tol=args.tol
    ),
    "utm": lambda verify, args: verify.verify_utm(
        trials=args.trials, seed=args.seed, tol=args.tol,
        uncertain_codes=args.uncertain_codes,
    ),
    "staged-counterexample": lambda verify, args: verify.verify_staged(
        tol=args.tol, seed=args.seed
    ),
    "broken-multitape": lambda verify, args: verify.verify_multitape(
        trials=args.trials, seed=args.seed, tol=args.tol, broken=True
    ),
}


def cmd_verify(args) -> int:
    from . import verify as verify_mod

    _require_positive("--trials", args.trials)
    if args.seed < 0:
        raise CliError(f"--seed must be a non-negative integer, got {args.seed}")
    _require_tolerance(args.tol)
    if args.uncertain_codes and args.construction != "utm":
        raise CliError("--uncertain-codes applies to --construction utm only")
    report = CAMPAIGNS[args.construction](verify_mod, args)
    text = verify_mod.report_json(report)
    if args.report:
        _write(args.report, text)
    else:
        sys.stdout.write(text)
    ok = report["pass"]
    summary = (
        f"{report['construction']}: {len(report['results'])} trials, "
        f"max deviation {report['max_deviation']:.3e}: "
        + ("PASS" if ok else "FAIL")
    )
    print(summary, file=sys.stderr)
    if not ok and report["construction"] == "staged-counterexample":
        r = report["results"][0]
        print(
            "staged cell A/B: "
            f"{r['staged_cell']['A']}/{r['staged_cell']['B']} vs smooth "
            f"{r['smooth_cell']['A']}/{r['smooth_cell']['B']}",
            file=sys.stderr,
        )
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="smoothtm",
        description="Simulate, compile and verify smooth relaxations of "
        "Turing machines.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="run a machine on a configuration")
    runp.add_argument("machine", help="machine text file")
    runp.add_argument("config", help="configuration JSON file")
    runp.add_argument("--steps", type=int, default=1)
    runp.add_argument(
        "--smooth", action="store_true", help="propagate distributions"
    )
    runp.add_argument("--trace", metavar="OUT", help="write one JSON line per step")
    runp.set_defaults(fn=cmd_run)

    comp = sub.add_parser("compile", help="compile an n-tape machine to one tape")
    comp.add_argument("machine")
    comp.add_argument("-o", "--output", required=True)
    comp.set_defaults(fn=cmd_compile)

    utmp = sub.add_parser("utm", help="build and exercise the pseudo-UTM")
    utmp.add_argument("--states", type=int, required=True)
    utmp.add_argument("--alphabet", required=True, help="file listing symbols")
    utmp.add_argument("--code", required=True, help="single-tape machine file")
    utmp.add_argument("--cycles", type=int, default=1)
    utmp.add_argument("--input", help="initial configuration JSON file")
    utmp.add_argument(
        "--overrides",
        help='JSON file of uncertain-code entries {"q": {"a": {"target": '
        '{...}, "write": {...}, "move": {...}}}}',
    )
    utmp.add_argument("--tol", type=float, default=1e-9)
    utmp.set_defaults(fn=cmd_utm)

    ver = sub.add_parser("verify", help="run preservation campaigns")
    ver.add_argument(
        "--construction",
        required=True,
        choices=list(CAMPAIGNS),
    )
    ver.add_argument("--trials", type=int, default=25)
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--tol", type=float, default=1e-9)
    ver.add_argument("--report", metavar="OUT")
    ver.add_argument("--uncertain-codes", action="store_true")
    ver.set_defaults(fn=cmd_verify)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_environment()
        return args.fn(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
