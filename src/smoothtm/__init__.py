"""Smooth (naive-Bayesian) relaxation of Turing machines.

Simulate machines under the smooth relaxation, compile multi-tape machines to
single-tape machines that provably preserve it, build the relaxation-
preserving pseudo-UTM, and verify the preservation claims numerically.
"""
