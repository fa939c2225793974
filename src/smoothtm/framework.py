"""Generating machines and smooth-relaxation-preservation checks.

A generating triple wraps a machine together with a decoder onto a target
machine.  A runner state is an encoding exactly when the decoder returns a
configuration for it; running the machine from an encoding until it reaches
an encoding again is one cycle, and the construction preserves the smooth
relaxation when the decoded end of a cycle agrees with one smooth step of the
target applied to the decoded input (the commuting square).  Each step is
decoded once, and that one parse is both the encoding test and the cycle's
output.

The runner state is opaque to this module: dense machines step
:class:`~smoothtm.smooth.SmoothConfig` values, compiled constructions step
:class:`~smoothtm.engine.SectionConfig` values.  A triple supplies its own
stepper, decoder, certificate of non-encodings and per-step invariant checks.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Callable

from .smooth import SmoothConfig

MAX_STEPS_ENV = "SMOOTHTM_MAX_STEPS"


class StuckError(RuntimeError):
    """Positive probability mass reached an unspecified transition."""


class CycleOverrun(RuntimeError):
    """No encoding was reached again within the step bound."""

    def __init__(self, steps: int):
        super().__init__(
            f"no encoding reached within {steps} steps; "
            "the construction does not cycle"
        )
        self.steps = steps


@dataclass
class GeneratingTriple:
    """A machine that generates another, with its smooth counterparts."""

    stepper: Callable[[Any], tuple[Any, Any]]  # state -> (state', step info)
    # the decoded configuration of an encoding, None for any other state
    decode: Callable[[Any], SmoothConfig | None]
    # True only when the state is certifiably a distribution over
    # non-encodings: every classical configuration in its support fails the
    # encoding's structural constraints (it suffices that one product
    # component has support disjoint from its constraint)
    certify_outside: Callable[[Any], bool]
    target_step: Callable[[SmoothConfig], SmoothConfig]
    max_steps: int
    # construction-specific per-step invariants; returns violation strings
    step_checks: Callable[[int, Any, Any], list[str]] = lambda t, x, info: []

    def step_bound(self) -> int:
        env = env_step_bound()
        return self.max_steps if env is None else env


def env_step_bound() -> int | None:
    """The step bound set by the environment, or None when it sets none."""
    env = os.environ.get(MAX_STEPS_ENV)
    if not env:
        return None
    try:
        bound = int(env)
    except ValueError:
        bound = 0
    if bound <= 0:
        raise ValueError(f"{MAX_STEPS_ENV} must be a positive integer, got {env!r}")
    return bound


def run_to_next_encoding(g: GeneratingTriple, x):
    """Iterate the smooth step until the state decodes again.

    Returns (configuration, cycle length t).  Raises :class:`CycleOverrun`
    when the bound is exceeded, which signals a broken construction.
    """
    bound = g.step_bound()
    for t in range(1, bound + 1):
        x, _ = g.stepper(x)
        if g.decode(x) is not None:
            return x, t
    raise CycleOverrun(bound)


@dataclass
class WellBehavedReport:
    cycle_length: int | None
    violations: list[dict] = field(default_factory=list)
    # the decoded configuration the cycle ends on, None when it ends on none
    output: SmoothConfig | None = None


def check_well_behaved(g: GeneratingTriple, x) -> tuple[Any, WellBehavedReport]:
    """Run one cycle verifying every intermediate stays outside encodings.

    An intermediate configuration that cannot be certified disjoint from the
    encoding set (or that trips a construction-specific step invariant) is
    reported with its step index, as is a run that reaches no encoding
    within the step bound.
    """
    report = WellBehavedReport(cycle_length=None)
    bound = g.step_bound()
    stepper, step_checks = g.stepper, g.step_checks
    decode, certify_outside = g.decode, g.certify_outside
    for t in range(1, bound + 1):
        try:
            x, info = stepper(x)
        except StuckError as exc:
            report.violations.append({"step": t, "violation": str(exc)})
            return x, report
        for msg in step_checks(t, x, info):
            report.violations.append({"step": t, "violation": msg})
        report.output = decode(x)
        if report.output is not None:
            report.cycle_length = t
            return x, report
        if not certify_outside(x):
            report.violations.append(
                {"step": t, "violation": "intermediate overlaps encodings"}
            )
    report.violations.append({"step": bound, "violation": "no encoding reached"})
    return x, report


@dataclass
class PreservationResult:
    cycle_lengths: list[int]
    max_deviation: float
    violations: list[dict]
    # the decoded configuration at the end of each completed cycle
    outputs: list[SmoothConfig] = field(default_factory=list)

    def passes(self, tol: float) -> bool:
        return not self.violations and self.max_deviation <= tol


def check_preserving(
    g: GeneratingTriple,
    x,
    tol: float = 1e-9,
    cycles: int = 1,
) -> PreservationResult:
    """Drive the commuting square from one smooth encoding, cycle by cycle.

    Per cycle: advance the generating machine to its next encoding and the
    decoded target by one smooth step, then compare the two decodings
    coordinatewise.  The reported deviation is the maximum over cycles.
    Raises ValueError when ``x`` is not an encoding.
    """
    decoded = g.decode(x)
    if decoded is None:
        raise ValueError("not a valid encoding: the starting state does not decode")
    lengths: list[int] = []
    outputs: list[SmoothConfig] = []
    violations: list[dict] = []
    dev = 0.0
    for _ in range(cycles):
        x, rep = check_well_behaved(g, x)
        violations.extend(rep.violations)
        if rep.output is None:
            break
        lengths.append(rep.cycle_length)
        outputs.append(rep.output)
        decoded = g.target_step(decoded)
        dev = max(dev, rep.output.deviation(decoded))
    return PreservationResult(lengths, dev, violations, outputs)
