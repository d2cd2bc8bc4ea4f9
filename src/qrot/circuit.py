"""Gate-level circuit description shared by the simulator and circuit builders."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Integral

from .errors import DomainError

GATE_KINDS = ("RX", "RY", "RZ", "H", "X")

# Desk-scale cap: a data qubit plus up to 11 control qubits.
MAX_QUBITS = 12


def _is_int(x) -> bool:
    """An integer index; bool is Integral but is no qubit index. A plain int,
    the common case, skips the slower ``Integral`` check."""
    return type(x) is int or (isinstance(x, Integral) and not isinstance(x, bool))


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
        if not math.isfinite(self.theta):
            raise DomainError("gate angle must be finite")
        if not _is_int(self.target) or self.target < 0:
            raise DomainError(f"target qubit index must be a non-negative integer, "
                              f"got {self.target!r}")


@dataclass(frozen=True)
class BranchRotation:
    """A uniformly controlled rotation: one RY or RZ on the target per control
    branch, ``thetas[b]`` on branch b, and no gate on branches at or beyond
    ``len(thetas)`` (Mottonen et al., PRL 93, 130502, 2004).

    It equals ``len(thetas)`` fully controlled gates, where the k-th qubit of
    ``controls`` carries bit k of the branch index
    (``tests/oracles.expand_branch_rotations`` writes them out). Only the shape
    of a batch encoding is allowed: target 0, and controls 1, 2, ..., n in
    order, which ``Circuit`` requires to be every other qubit. Branch b is
    then the amplitude pair 2b, 2b + 1 of the statevector.
    """

    kind: str
    target: int
    thetas: tuple[float, ...]
    controls: tuple[int, ...]

    def __post_init__(self):
        if self.kind not in ("RY", "RZ"):
            raise DomainError(f"a branch rotation is RY or RZ, got {self.kind!r}")
        thetas, controls = tuple(self.thetas), tuple(self.controls)
        object.__setattr__(self, "thetas", thetas)
        object.__setattr__(self, "controls", controls)
        if not all(map(math.isfinite, thetas)):
            raise DomainError("gate angle must be finite")
        if not (_is_int(self.target) and self.target == 0):
            raise DomainError(f"a branch rotation targets qubit 0, got {self.target!r}")
        if (not controls or not all(map(_is_int, controls))
                or controls != tuple(range(1, len(controls) + 1))):
            raise DomainError(f"a branch rotation is controlled by qubits 1, 2, ..., n "
                              f"in order, got {controls!r}")
        if len(thetas) > 1 << len(controls):
            raise DomainError(f"{len(thetas)} angles for {1 << len(controls)} branches")


@dataclass(frozen=True)
class Circuit:
    """An ordered list of gates on ``num_qubits`` qubits."""

    num_qubits: int
    ops: tuple[GateOp | BranchRotation, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if not (_is_int(self.num_qubits) and 1 <= self.num_qubits <= MAX_QUBITS):
            raise DomainError(f"num_qubits must be an integer in [1, {MAX_QUBITS}], "
                              f"got {self.num_qubits!r}")
        object.__setattr__(self, "ops", tuple(self.ops))
        for op in self.ops:
            if not isinstance(op, (GateOp, BranchRotation)):
                raise DomainError(f"a circuit holds GateOp and BranchRotation ops, got {op!r}")
            if isinstance(op, BranchRotation) and len(op.controls) != self.num_qubits - 1:
                raise DomainError(f"a branch rotation must be controlled by every qubit "
                                  f"but 0; {len(op.controls)} controls at width "
                                  f"{self.num_qubits}")
            if op.target >= self.num_qubits:
                raise DomainError(f"qubit index {op.target} out of range for width "
                                  f"{self.num_qubits}")
