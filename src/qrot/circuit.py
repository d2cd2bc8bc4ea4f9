"""Gate-level circuit description shared by the simulator and circuit builders."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Integral, Real

from .errors import DomainError

GATE_KINDS = ("RX", "RY", "RZ", "H", "X")

# Desk-scale cap: a data qubit plus up to 11 control qubits.
MAX_QUBITS = 12


def _is_int(x) -> bool:
    """An integer index; bool is Integral but is no qubit index. A plain int,
    the common case, skips the slower ``Integral`` check."""
    return type(x) is int or (isinstance(x, Integral) and not isinstance(x, bool))


def _is_angle(x) -> bool:
    return isinstance(x, Real) and math.isfinite(x)


def _as_tuple(items, what: str) -> tuple:
    try:
        return tuple(items)
    except TypeError:
        raise DomainError(f"{what} must be iterable, got {items!r}") from None


@dataclass(frozen=True)
class GateOp:
    """One uncontrolled gate: a kind, a target qubit and an angle (unused by H
    and X). The one controlled gate is ``BranchRotation``."""

    kind: str
    target: int
    theta: float = 0.0

    def __post_init__(self):
        if self.kind not in GATE_KINDS:
            raise DomainError(f"unknown gate kind {self.kind!r}; expected one of {GATE_KINDS}")
        if not _is_angle(self.theta):
            raise DomainError(f"gate angle must be a finite real number, got {self.theta!r}")
        if not _is_int(self.target) or self.target < 0:
            raise DomainError(f"target qubit index must be a non-negative integer, "
                              f"got {self.target!r}")


@dataclass(frozen=True)
class BranchRotation:
    """A uniformly controlled rotation of qubit 0: one RY or RZ per control
    branch, ``thetas[b]`` on branch b, and no gate on branches at or beyond
    ``len(thetas)`` (Mottonen et al., PRL 93, 130502, 2004).

    In a circuit of width n + 1 its controls are qubits 1, ..., n, qubit k
    carrying bit k - 1 of the branch index; branch b is the amplitude pair 2b,
    2b + 1 of the statevector. It equals ``len(thetas)`` fully controlled gates
    (``tests/oracles.expand_branch_rotations`` writes them out). ``Circuit``
    checks that there is a control and at most one angle per branch.
    """

    kind: str
    thetas: tuple[float, ...]

    def __post_init__(self):
        if self.kind not in ("RY", "RZ"):
            raise DomainError(f"a branch rotation is RY or RZ, got {self.kind!r}")
        object.__setattr__(self, "thetas", _as_tuple(self.thetas, "a branch rotation's angles"))
        if not all(map(_is_angle, self.thetas)):
            raise DomainError("gate angles must be finite real numbers")


@dataclass(frozen=True)
class Circuit:
    """An ordered list of gates on ``num_qubits`` qubits."""

    num_qubits: int
    ops: tuple[GateOp | BranchRotation, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if not (_is_int(self.num_qubits) and 1 <= self.num_qubits <= MAX_QUBITS):
            raise DomainError(f"num_qubits must be an integer in [1, {MAX_QUBITS}], "
                              f"got {self.num_qubits!r}")
        object.__setattr__(self, "ops", _as_tuple(self.ops, "a circuit's ops"))
        for op in self.ops:
            if isinstance(op, BranchRotation):
                if self.num_qubits == 1:
                    raise DomainError("a branch rotation needs a control qubit: width 2 or more")
                if len(op.thetas) > 1 << (self.num_qubits - 1):
                    raise DomainError(f"{len(op.thetas)} angles for "
                                      f"{1 << (self.num_qubits - 1)} branches")
            elif not isinstance(op, GateOp):
                raise DomainError(f"a circuit holds GateOp and BranchRotation ops, got {op!r}")
            elif op.target >= self.num_qubits:
                raise DomainError(f"qubit index {op.target} out of range for width "
                                  f"{self.num_qubits}")
