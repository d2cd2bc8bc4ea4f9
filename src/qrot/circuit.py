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
    """An integer index; bool is Integral but is no qubit index."""
    return isinstance(x, Integral) and not isinstance(x, bool)


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
            controls = tuple((q, t) for q, t in self.controls)
        except (TypeError, ValueError):
            raise DomainError(f"controls must be (qubit, trigger) pairs, "
                              f"got {self.controls!r}") from None
        if not all(_is_int(q) and _is_int(t) for q, t in controls):
            raise DomainError(f"control qubits and triggers must be integers, "
                              f"got {self.controls!r}")
        controls = tuple((int(q), int(t)) for q, t in controls)
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


@dataclass(frozen=True)
class Circuit:
    """An ordered list of gates on ``num_qubits`` qubits."""

    num_qubits: int
    ops: tuple[GateOp, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if not (_is_int(self.num_qubits) and 1 <= self.num_qubits <= MAX_QUBITS):
            raise DomainError(f"num_qubits must be an integer in [1, {MAX_QUBITS}], "
                              f"got {self.num_qubits!r}")
        object.__setattr__(self, "ops", tuple(self.ops))
        for op in self.ops:
            indices = [op.target] + [q for q, _ in op.controls]
            for q in indices:
                if q >= self.num_qubits:
                    raise DomainError(f"qubit index {q} out of range for width {self.num_qubits}")
