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
    """One gate: a kind, a target qubit, an optional angle and control pattern.

    ``controls`` is a tuple of ``(qubit, trigger)`` pairs; the gate acts on the
    target only where every control qubit carries its trigger value (0 or 1).
    A trigger of 0 is the native form of a control sandwiched between X gates.
    """

    kind: str
    target: int
    theta: float = 0.0
    controls: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        if self.kind not in GATE_KINDS:
            raise DomainError(f"unknown gate kind {self.kind!r}; expected one of {GATE_KINDS}")
        if not math.isfinite(self.theta):
            raise DomainError("gate angle must be finite")
        if not _is_int(self.target) or self.target < 0:
            raise DomainError(f"target qubit index must be a non-negative integer, "
                              f"got {self.target!r}")
        try:
            pairs = [(q, t) for q, t in self.controls]
        except (TypeError, ValueError):
            raise DomainError(f"controls must be (qubit, trigger) pairs, "
                              f"got {self.controls!r}") from None
        for q, t in pairs:
            if not (_is_int(q) and _is_int(t)):
                raise DomainError(f"control qubits and triggers must be integers, "
                                  f"got {self.controls!r}")
        controls = tuple([(int(q), int(t)) for q, t in pairs])
        object.__setattr__(self, "controls", controls)
        seen = set()
        for q, t in controls:
            if t not in (0, 1):
                raise DomainError(f"control trigger must be 0 or 1, got {t}")
            if q == self.target:
                raise DomainError(f"qubit {q} cannot be both control and target")
            if q < 0:
                raise DomainError(f"control qubit index must be non-negative, got {q}")
            if q in seen:
                raise DomainError(f"duplicate control on qubit {q}")
            seen.add(q)

    @property
    def control_qubits(self) -> tuple[int, ...]:
        return tuple([q for q, _ in self.controls])


@dataclass(frozen=True)
class BranchRotation:
    """A uniformly controlled rotation: one RY or RZ on the target per control
    branch, ``thetas[b]`` on branch b, and no gate on branches at or beyond
    ``len(thetas)`` (Mottonen et al., PRL 93, 130502, 2004).

    It equals ``len(thetas)`` fully controlled ``GateOp``s, where the k-th
    qubit of ``controls`` carries bit k of the branch index. Only the shape
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

    @property
    def control_qubits(self) -> tuple[int, ...]:
        return self.controls


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
            if isinstance(op, BranchRotation) and len(op.controls) != self.num_qubits - 1:
                raise DomainError(f"a branch rotation must be controlled by every qubit "
                                  f"but 0; {len(op.controls)} controls at width "
                                  f"{self.num_qubits}")
            for q in (op.target, *op.control_qubits):
                if q >= self.num_qubits:
                    raise DomainError(f"qubit index {q} out of range for width {self.num_qubits}")
