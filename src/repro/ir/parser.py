"""Parser for the textual region format produced by
:func:`repro.ir.printer.format_region`.

Grammar (one construct per line; ``#`` starts a comment)::

    region <name>
    [live_in: reg {, reg}]
    [live_out: reg {, reg}]
    <label>: <opcode> [defs(reg{,reg})] [uses(reg{,reg})] [lat=N]
    ...
    end
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional

from ..errors import IRError, ParseError
from .block import SchedulingRegion, upward_exposed_uses
from .instructions import Instruction, opcode
from .registers import VirtualRegister

_INST_RE = re.compile(
    r"^(?P<label>\w+):\s+(?P<op>\w+)"
    r"(?:\s+defs\((?P<defs>[^)]*)\))?"
    r"(?:\s+uses\((?P<uses>[^)]*)\))?"
    r"(?:\s+lat=(?P<lat>\d+))?\s*$"
)
#: The label the printer gives an unnamed instruction (``i<index>``).
_DEFAULT_LABEL_RE = re.compile(r"i\d+")


def _parse_reg_list(
    text: Optional[str], line_no: int, registers: Dict[str, VirtualRegister]
) -> List[VirtualRegister]:
    """The registers named in ``text``, one object per name.

    ``registers`` maps the register text already seen in this parse to its
    object, so every later set and dict lookup of a register hits on
    identity instead of falling through to ``__eq__``.
    """
    if not text or not text.strip():
        return []
    regs = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        reg = registers.get(chunk)
        if reg is None:
            try:
                reg = registers[chunk] = VirtualRegister.parse(chunk)
            except Exception as exc:
                raise ParseError(str(exc), line_no)
        regs.append(reg)
    return regs


def parse_region(text: str) -> SchedulingRegion:
    """Parse one region from ``text``; raises :class:`ParseError` on bad input."""
    name = None
    live_in: List[VirtualRegister] = []
    live_out: List[VirtualRegister] = []
    instructions: List[Instruction] = []
    # Local to this call: a process-wide table would grow with every region.
    registers: Dict[str, VirtualRegister] = {}
    saw_end = False

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if saw_end:
            raise ParseError("content after 'end'", line_no)
        if name is None:
            if not line.startswith("region "):
                raise ParseError("expected 'region <name>'", line_no)
            name = line[len("region "):].strip()
            if not name:
                raise ParseError("region name is empty", line_no)
            continue
        if line == "end":
            saw_end = True
            continue
        if line.startswith("live_in:"):
            live_in.extend(_parse_reg_list(line[len("live_in:"):], line_no, registers))
            continue
        if line.startswith("live_out:"):
            live_out.extend(_parse_reg_list(line[len("live_out:"):], line_no, registers))
            continue
        match = _INST_RE.match(line)
        if not match:
            raise ParseError("cannot parse instruction %r" % line, line_no)
        try:
            op = opcode(match.group("op"))
        except Exception as exc:
            raise ParseError(str(exc), line_no)
        lat_text = match.group("lat")
        label = match.group("label")
        defs = tuple(_parse_reg_list(match.group("defs"), line_no, registers))
        uses = tuple(_parse_reg_list(match.group("uses"), line_no, registers))
        try:
            instructions.append(
                Instruction(
                    index=len(instructions),
                    op=op,
                    defs=defs,
                    uses=uses,
                    latency=int(lat_text) if lat_text is not None else -1,
                    name="" if _DEFAULT_LABEL_RE.fullmatch(label) else label,
                )
            )
        except IRError as exc:
            raise ParseError(str(exc), line_no)

    if name is None:
        raise ParseError("empty input: no 'region' header")
    if not saw_end:
        raise ParseError("missing 'end'")
    if not instructions:
        raise ParseError("region %r has no instructions" % name)

    try:
        return SchedulingRegion(
            instructions,
            name,
            live_in=set(live_in) | set(upward_exposed_uses(instructions)),
            live_out=live_out,
        )
    except IRError as exc:  # e.g. a live-out register nothing defines
        raise ParseError(str(exc))
