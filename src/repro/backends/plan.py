"""Fused-pipeline plans: the wire format between lazy vectors and backends.

A :class:`FusedPlan` is the flattened, backend-agnostic rendering of one
lazy expression DAG (:mod:`repro.core.lazy`) at the moment it is forced:
a tuple of leaf input arrays, a topologically ordered tuple of
:class:`PlanStep` elementwise operations over them, and — when the DAG is
being forced *by* a primitive scan — a terminal scan op the backend may
fold the chain into.  Only a backend that ``fuses`` ever receives one,
and runs it block by block (:func:`repro.backends.carry.run_plan`).
Plans are immutable and contain no machine, charge or fault state: the
:class:`~repro.machine.Machine` computes every step and wire charge from
the *logical* ops before the plan ever reaches a backend, exactly as it
does for eager execution.

Every step is a plain elementwise callable ``fn`` (a NumPy ufunc,
``np.where``, a cast, or any composition with no cross-element data
flow), its operand references ``args``, and its result ``dtype`` —
NumPy's own, probed on zero-length slices at build time — so a backend
can allocate the plan's output before evaluating any step.

Operand references are tagged tuples: ``("in", i)`` names
``plan.inputs[i]``, ``("step", j)`` the output of step ``j``, and
``("const", x)`` a scalar immediate held in the instruction.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

__all__ = ["FusedPlan", "PlanStep"]


@dataclass(frozen=True)
class PlanStep:
    """One elementwise operation of a fused plan (see module docstring)."""

    fn: Callable                 #: the elementwise callable
    dtype: np.dtype              #: the step's result dtype
    args: tuple                  #: ("in", i) | ("step", j) | ("const", x)


@dataclass(frozen=True)
class FusedPlan:
    """One forced expression DAG, flattened for backend execution.

    ``steps`` is topologically ordered and the **last step is the root**:
    its output is the plan's elementwise result.  When ``terminal`` names
    a primitive scan (``"plus_scan"`` / ``"max_scan"``), the plan's value
    is that scan applied to the root — backends are free (and encouraged)
    to fold the chain into the scan's own pass.  ``terminal_args`` are the
    scan's extra positional arguments (``max_scan``'s identity).
    """

    inputs: tuple                #: leaf ndarrays (read-only)
    steps: tuple                 #: PlanStep, topo order, root last
    n: int                       #: vector length of every step's output
    terminal: Optional[str] = None
    terminal_args: tuple = ()

    def __post_init__(self) -> None:
        if not self.steps:
            raise ValueError("a fused plan needs at least one step")
        if self.terminal is not None and self.terminal not in (
                "plus_scan", "max_scan"):
            raise ValueError(f"unknown terminal {self.terminal!r}")

    @property
    def root_dtype(self) -> np.dtype:
        """Result dtype of the elementwise chain (and of the terminal
        scan, which preserves its operand's dtype)."""
        return self.steps[-1].dtype

    def block_temp_bytes(self, block: int) -> int:
        """Working storage of :meth:`rows` on one ``block``-row block:
        one block-sized intermediate per step."""
        return (len(self.steps) * min(self.n, block)
                * max(1, self.root_dtype.itemsize))

    def resolve(self, ref, env: list):
        """Dereference one operand: ``env`` holds computed step outputs."""
        tag, payload = ref
        if tag == "in":
            return self.inputs[payload]
        if tag == "step":
            return env[payload]
        return payload  # "const": the scalar itself

    def rows(self, s: int, e: int) -> np.ndarray:
        """The chain's value on rows ``[s, e)`` alone.

        Leaf inputs are sliced to those rows, so every intermediate is
        ``(e - s)``-sized: a backend evaluating the chain block by block
        keeps its working storage block-bounded at any vector length.
        """
        env: list = []
        for step in self.steps:
            args = [self.inputs[payload][s:e] if tag == "in"
                    else self.resolve((tag, payload), env)
                    for tag, payload in step.args]
            env.append(step.fn(*args))
        return env[-1]

    def describe(self) -> str:  # pragma: no cover - cosmetic
        ops = [s.fn.__name__ for s in self.steps]
        tail = f" -> {self.terminal}" if self.terminal else ""
        return f"FusedPlan(n={self.n}, {' -> '.join(ops)}{tail})"
