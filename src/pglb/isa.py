"""Instruction set and concrete syntax.

A program is a non-empty, 1-indexed sequence of primitive instructions:

    a       basic action (runs, yields a Boolean reply, continues)
    +a      positive test (reply t: next instruction; reply f: skip one)
    -a      negative test (complementary conventions)
    #l      relative forward jump over l instructions
    \\#l     relative backward jump
    !t !f   termination delivering the Boolean value t or f

Actions are either bare symbols or ``focus.method`` requests addressed to a
named service (e.g. ``in:3.get``, ``aux:1.set:f``). The textual form uses
``;`` or newlines between instructions and ``//`` line comments. One
pattern reads every token, in one pass from text to the compiled form
(:func:`pglb.extraction.compile_text`, the one compiler), and a token it
refuses is reported by its first malformed part (:func:`_refusal`). Only
:func:`parse` builds the instructions of text. The constructors refuse what
it refuses: ``tau`` (:data:`TAU`), ``bool`` numbers and numbers of more than
``MAX_DIGITS`` digits. So all they build renders to text that :func:`parse`
reads back, and a sequence built in code compiles as that text.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator


# Methods understood by Boolean registers.
GET = "get"
SET_T = "set:t"
SET_F = "set:f"

# A number in a program has at most as many digits as int() converts in this
# interpreter (sys.set_int_max_str_digits); 0, as there, means no bound.
MAX_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()
_IDENT = r"[A-Za-z0-9_]+"
_METHOD = rf"{_IDENT}(?::{_IDENT})*"
_POSITIVE = rf"[1-9][0-9]{{0,{MAX_DIGITS - 1}}}" if MAX_DIGITS else "[1-9][0-9]*"
_NAT = rf"(?:0|{_POSITIVE})"
_IDENT_RE = re.compile(_IDENT + r"\Z")
_METHOD_RE = re.compile(_METHOD + r"\Z")
_NAT_RE = re.compile(_NAT + r"\Z")
_DIGITS_RE = re.compile(r"[0-9]+\Z")
# The least number with more than MAX_DIGITS digits; an int compares below an infinite float.
_TOO_MANY_DIGITS = 10**MAX_DIGITS if MAX_DIGITS else float("inf")


@dataclass(frozen=True)
class Focus:
    """The name a service is registered under: ``in:n``, ``aux:n`` or a bare identifier.

    Input indices start at 1; auxiliary indices start at 0. Identifiers may
    not contain ``:`` or ``.``, so rendering is injective.
    """

    kind: str  # "in" | "aux" | "named"
    index: int | None = None
    name: str | None = None

    def __post_init__(self) -> None:
        if isinstance(self.index, bool):
            raise ValueError(f"{self.kind} focus index must be an int, not {self.index!r}")
        if self.kind == "in":
            if self.index is None or self.index < 1 or self.name is not None:
                raise ValueError(f"input focus needs an index >= 1, got {self.index!r}")
        elif self.kind == "aux":
            if self.index is None or self.index < 0 or self.name is not None:
                raise ValueError(f"auxiliary focus needs an index >= 0, got {self.index!r}")
        elif self.kind == "named":
            if self.index is not None or not self.name or not _IDENT_RE.match(self.name):
                raise ValueError(f"named focus needs an identifier, got {self.name!r}")
        else:
            raise ValueError(f"unknown focus kind {self.kind!r}")
        if self.index is not None and self.index >= _TOO_MANY_DIGITS:
            raise ValueError(f"{self.kind} focus index has more than {MAX_DIGITS} digits")

    @staticmethod
    def input(index: int) -> "Focus":
        return Focus("in", index=index)

    @staticmethod
    def aux(index: int) -> "Focus":
        return Focus("aux", index=index)

    @staticmethod
    def named(name: str) -> "Focus":
        return Focus("named", name=name)

    def __str__(self) -> str:
        if self.kind == "named":
            return self.name  # type: ignore[return-value]
        return f"{self.kind}:{self.index}"


@dataclass(frozen=True)
class Action:
    """A basic action: a ``focus.method`` service request or a bare symbol."""

    name: str
    focus: Focus | None = None

    def __post_init__(self) -> None:
        pattern = _METHOD_RE if self.focus is not None else _IDENT_RE
        if not pattern.match(self.name):
            raise ValueError(f"bad action name {self.name!r}")

    def __str__(self) -> str:
        if self.focus is None:
            return self.name
        return f"{self.focus}.{self.name}"


# The internal action produced by the use operator. It has no side effects
# and always replies t; threads may carry it, but no instruction may.
TAU = Action("tau")
_TAU_RESERVED = "'tau' is reserved for internal steps"


def _refuse_tau(instruction: "Basic | PosTest | NegTest") -> None:
    if instruction.action == TAU:
        raise ValueError(_TAU_RESERVED)


@dataclass(frozen=True)
class Basic:
    action: Action
    __post_init__ = _refuse_tau


@dataclass(frozen=True)
class PosTest:
    action: Action
    __post_init__ = _refuse_tau


@dataclass(frozen=True)
class NegTest:
    action: Action
    __post_init__ = _refuse_tau


def _check_offset(jump: "FwdJump | BwdJump") -> None:
    if isinstance(jump.offset, bool):
        raise ValueError(f"jump length must be an int, not {jump.offset!r}")
    if jump.offset < 0:
        raise ValueError("jump offset must be >= 0")
    if jump.offset >= _TOO_MANY_DIGITS:
        raise ValueError(f"jump length has more than {MAX_DIGITS} digits")


@dataclass(frozen=True)
class FwdJump:
    offset: int
    __post_init__ = _check_offset


@dataclass(frozen=True)
class BwdJump:
    offset: int
    __post_init__ = _check_offset


@dataclass(frozen=True)
class Termination:
    positive: bool


TERM_T = Termination(True)
TERM_F = Termination(False)

Instruction = Basic | PosTest | NegTest | FwdJump | BwdJump | Termination


@dataclass(frozen=True)
class InstructionSequence:
    """Non-empty tuple of instructions; positions are 1-based."""

    instructions: tuple[Instruction, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "instructions", tuple(self.instructions))
        if not self.instructions:
            raise ValueError("empty instruction sequence")

    @cached_property
    def compiled(self) -> "CompiledProgram":  # noqa: F821
        """:func:`pglb.extraction.compile_text` of the sequence's rendered text on first use; for :func:`parse`, the text's."""
        from .extraction import compile_text  # extraction imports this module
        return compile_text(render(self))

    def __len__(self) -> int:
        return len(self.instructions)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    def __str__(self) -> str:
        return render(self)


def render_instruction(instruction: Instruction) -> str:
    if isinstance(instruction, Basic):
        return str(instruction.action)
    if isinstance(instruction, PosTest):
        return f"+{instruction.action}"
    if isinstance(instruction, NegTest):
        return f"-{instruction.action}"
    if isinstance(instruction, FwdJump):
        return f"#{instruction.offset}"
    if isinstance(instruction, BwdJump):
        return f"\\#{instruction.offset}"
    if isinstance(instruction, Termination):
        return "!t" if instruction.positive else "!f"
    raise TypeError(f"not an instruction: {instruction!r}")


def render(sequence: InstructionSequence) -> str:
    """Canonical single-line form; ``parse(render(s)) == s``."""
    return "; ".join(map(render_instruction, sequence.instructions))


def _refusal(token: str) -> str:
    """Why ``_TOKEN`` refuses ``token``: the first part of it, in reading order, that is malformed."""
    if token.startswith(("#", "\\#")):
        what, number = "jump length", token.split("#", 1)[1]
    else:
        text = token[1:].strip() if token[0] in "+-" else token
        focus, dot, method = text.partition(".")
        if not dot:
            return _TAU_RESERVED if text == "tau" else f"bad action {text!r}"
        kind, colon, number = focus.partition(":")
        if not colon or kind not in ("in", "aux"):
            return f"bad method {method!r}" if _IDENT_RE.match(focus) else f"bad focus {focus!r}"
        if _NAT_RE.match(number):
            return "input focus index must be >= 1" if number == "0" and kind == "in" else f"bad method {method!r}"
        what = f"{kind} focus index"
    if MAX_DIGITS and len(number) > MAX_DIGITS and _DIGITS_RE.match(number):
        return f"{what} has more than {MAX_DIGITS} digits"
    return f"bad {what} {number!r}"


# The well-formed tokens of every instruction class but terminations: a jump, or an action instruction, whose
# text after the sign and spaces (a group) is the action's canonical text. _refusal words why it refuses one, or tau.
_TOKEN = re.compile(
    rf"(\\?)#({_NAT})|([+-]?)\s*((?:in:({_POSITIVE})|aux:({_NAT})|({_IDENT}))\.({_METHOD})|({_IDENT}))"
)
_BY_SIGN = {"": Basic, "+": PosTest, "-": NegTest}


def _action_of(text: str) -> Action:
    """The action whose canonical text is ``text``, as a well-formed token spells it after its sign."""
    focus, dot, method = text.partition(".")
    if not dot:
        return Action(text)
    kind, colon, index = focus.partition(":")
    return Action(method, Focus(kind, int(index)) if colon else Focus.named(focus))


def _instruction_of(token: str) -> Instruction:
    """The instruction a canonical token stands for, built through the constructors."""
    if token == "!t" or token == "!f":
        return TERM_T if token == "!t" else TERM_F
    if token.startswith(("#", "\\#")):
        return (FwdJump if token[0] == "#" else BwdJump)(int(token.split("#", 1)[1]))
    sign = token[0] if token[0] in "+-" else ""
    return _BY_SIGN[sign](_action_of(token[len(sign) :]))


def parse(text: str) -> InstructionSequence:
    """Parse program text; instructions separated by ``;`` or newlines.

    ``//`` starts a comment running to the end of the line. Raises
    :class:`ParseError` with a line:column position on malformed input, at
    a malformed token's first occurrence. The text is read into its compiled
    form (:func:`pglb.extraction.compile_text`), which the sequence keeps,
    then one instruction is built per distinct token, from its row's text,
    and shared.
    """
    from .extraction import compile_text  # extraction imports this module

    program = compile_text(text)
    built = {id(head): _instruction_of(head[7]) for head in program.heads}
    sequence = InstructionSequence(tuple(map(built.__getitem__, map(id, program.rows[1 : program.exit_state]))))
    object.__setattr__(sequence, "compiled", program)  # fills the cached property
    return sequence
