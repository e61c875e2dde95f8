"""Basic blocks.

A basic block is a labelled, ordered list of instructions with at most one
branch, which -- if present -- must be the last instruction (the block's
*terminator*).  The paper's global scheduler never moves branches and never
creates new blocks (Section 5.1), so blocks are structurally stable during
scheduling: only the non-branch instructions inside them are reordered,
removed (moved upward to another block) or inserted.
"""

from __future__ import annotations

from typing import Iterator

from .instruction import Instruction


class BasicBlock:
    """A labelled straight-line sequence of instructions."""

    __slots__ = ("label", "instrs")

    def __init__(self, label: str, instrs: list[Instruction] | None = None):
        self.label = label
        self.instrs: list[Instruction] = list(instrs or [])

    # -- structure -------------------------------------------------------

    @property
    def terminator(self) -> Instruction | None:
        """The trailing branch, or ``None`` for a fall-through block."""
        instrs = self.instrs
        if instrs and instrs[-1].opcode.is_branch:
            return instrs[-1]
        return None

    @property
    def body(self) -> list[Instruction]:
        """Instructions excluding the terminator (schedulable material)."""
        if self.terminator is not None:
            return self.instrs[:-1]
        return list(self.instrs)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instrs)

    def __len__(self) -> int:
        return len(self.instrs)

    # -- mutation --------------------------------------------------------

    def append(self, ins: Instruction) -> None:
        self.instrs.append(ins)

    def remove(self, ins: Instruction) -> None:
        """Remove ``ins`` (by identity)."""
        for i, existing in enumerate(self.instrs):
            if existing is ins:
                del self.instrs[i]
                return
        raise ValueError(f"{ins!r} is not in block {self.label}")

    def insert_before_terminator(self, ins: Instruction) -> None:
        """Insert ``ins`` at the end of the body, before any branch."""
        if self.terminator is not None:
            self.instrs.insert(len(self.instrs) - 1, ins)
        else:
            self.instrs.append(ins)

    def set_body(self, body: list[Instruction]) -> None:
        """Replace the body, keeping the terminator in place."""
        term = self.terminator
        self.instrs = list(body) + ([term] if term is not None else [])

    def index_of(self, ins: Instruction) -> int:
        for i, existing in enumerate(self.instrs):
            if existing is ins:
                return i
        raise ValueError(f"{ins!r} is not in block {self.label}")

    def __repr__(self) -> str:
        return f"<BasicBlock {self.label} ({len(self.instrs)} instrs)>"
