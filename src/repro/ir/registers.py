"""Register classes and virtual registers.

On the AMD GCN/Vega target modelled in this work there are two register
files that matter for occupancy: vector general-purpose registers (VGPRs,
one per lane) and scalar general-purpose registers (SGPRs, one per
wavefront). Register pressure is tracked per class, and each class maps to
occupancy through its own table (:mod:`repro.machine.occupancy`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..errors import IRError


@dataclass(frozen=True, order=True)
class RegisterClass:
    """A register file from the scheduler's point of view.

    ``prefix`` is the single letter used in the textual IR (``v3``, ``s7``).
    Ordered (by name) so registers sort deterministically.

    Every register's hash hashes its class, so the class hash is computed
    once, at construction, like :class:`VirtualRegister`'s. It equals the
    dataclass hash ``hash((name, prefix))``, which keeps set order.
    """

    __slots__ = ("name", "prefix", "_hash")

    name: str
    prefix: str

    def __post_init__(self):
        if len(self.prefix) != 1 or not self.prefix.isalpha():
            raise IRError("register-class prefix must be a single letter")
        object.__setattr__(self, "_hash", hash((self.name, self.prefix)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # Rebuild through the constructor, so copies and unpickled classes
        # re-derive the hash: string hashes differ between processes.
        return (RegisterClass, (self.name, self.prefix))

    def __str__(self) -> str:
        return self.name


#: Vector GPRs: per-lane registers; the dominant occupancy limiter on Vega.
VGPR = RegisterClass("VGPR", "v")
#: Scalar GPRs: per-wavefront registers.
SGPR = RegisterClass("SGPR", "s")

_CLASSES_BY_PREFIX: Dict[str, RegisterClass] = {VGPR.prefix: VGPR, SGPR.prefix: SGPR}


def register_class_by_prefix(prefix: str) -> RegisterClass:
    """Look up a built-in register class by its textual prefix."""
    try:
        return _CLASSES_BY_PREFIX[prefix]
    except KeyError:
        raise IRError("unknown register-class prefix %r" % prefix) from None


@dataclass(frozen=True, order=True)
class VirtualRegister:
    """A virtual register: a class plus a small integer id.

    Virtual registers are values, not objects: two ``VirtualRegister``
    instances with the same class and id are the same register. The textual
    form is ``<prefix><id>`` (``v0``, ``s12``).

    Registers key the sets and dicts of the parser, the DDG builder, the
    bounds, the linter and the verifier, so the hash is computed once, at
    construction. It equals the dataclass hash ``hash((reg_class, ident))``,
    which keeps set iteration order, and with it every output, unchanged.
    """

    __slots__ = ("reg_class", "ident", "_hash")

    reg_class: RegisterClass
    ident: int

    def __post_init__(self):
        if self.ident < 0:
            raise IRError("register id must be >= 0")
        object.__setattr__(self, "_hash", hash((self.reg_class, self.ident)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # Rebuild through the constructor, so copies and unpickled registers
        # re-derive the hash: string hashes differ between processes.
        return (VirtualRegister, (self.reg_class, self.ident))

    def __str__(self) -> str:
        return "%s%d" % (self.reg_class.prefix, self.ident)

    @staticmethod
    def parse(text: str) -> "VirtualRegister":
        """Parse ``v12`` / ``s3`` back into a register."""
        text = text.strip()
        if len(text) < 2:
            raise IRError("cannot parse register %r" % text)
        reg_class = register_class_by_prefix(text[0])
        try:
            ident = int(text[1:])
        except ValueError:
            raise IRError("cannot parse register %r" % text) from None
        return VirtualRegister(reg_class, ident)


def vreg(ident: int) -> VirtualRegister:
    """Shorthand for a VGPR virtual register."""
    return VirtualRegister(VGPR, ident)


def sreg(ident: int) -> VirtualRegister:
    """Shorthand for an SGPR virtual register."""
    return VirtualRegister(SGPR, ident)
