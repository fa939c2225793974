"""Smooth (naive-Bayesian) relaxation of Turing machines.

Simulate machines under the smooth relaxation, compile multi-tape machines to
single-tape machines that provably preserve it, build the relaxation-
preserving pseudo-UTM, and verify the preservation claims numerically.
"""

from . import engine, framework, multitape, sampling, utm, verify
from .dists import (
    ATOL,
    Dist,
    FiniteSet,
    LinearOp,
    ProductSet,
    convex_combine,
    direct_sum,
    induced_op,
    marginal,
    product_set,
    tensor,
    tensor_many,
)
from .machines import (
    DIRECTIONS,
    Configuration,
    FormatError,
    Machine,
    Tape,
    format_machine,
    parse_machine,
    run,
    step,
)
from .sections import (
    SectionMachine,
    Tract,
    format_section_machine,
    lower_sections,
    section_step,
)
from .smooth import (
    SmoothConfig,
    SmoothTape,
    embed,
    extract_classical,
    format_config,
    parse_config,
    psi_update,
    smooth_step,
    smooth_step_oracle,
)

__all__ = [
    "ATOL",
    "Dist",
    "FiniteSet",
    "LinearOp",
    "ProductSet",
    "convex_combine",
    "direct_sum",
    "induced_op",
    "marginal",
    "product_set",
    "tensor",
    "tensor_many",
    "DIRECTIONS",
    "Configuration",
    "FormatError",
    "Machine",
    "Tape",
    "format_machine",
    "parse_machine",
    "run",
    "step",
    "SectionMachine",
    "Tract",
    "format_section_machine",
    "lower_sections",
    "section_step",
    "SmoothConfig",
    "SmoothTape",
    "embed",
    "extract_classical",
    "format_config",
    "parse_config",
    "psi_update",
    "smooth_step",
    "smooth_step_oracle",
]
