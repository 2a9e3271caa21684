"""3-CNF encoding and the backward-jump satisfiability program generator.

Over k variables there are 8k^3 possible 3-literal clauses (variables may
repeat, literal order is ignored). A formula is encoded as a bit vector of
that length: bit j says whether clause number j occurs. The generated
program keeps a candidate assignment in aux registers, checks every encoded
clause against it, and on failure advances the assignment and jumps back to
the start; it answers t as soon as an assignment survives all checks and f
once every assignment has been tried.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import InfeasibleArityError, ParseError, parse_decimal
from .isa import InstructionSequence, parse


@dataclass(frozen=True)
class ClauseShape:
    """A 3-literal clause given by variable indices and a polarity pattern.

    Pattern p in 1..8 reads as the binary digits of p-1: a set bit negates
    the corresponding literal, most significant bit first. Pattern 1 is
    (+,+,+), pattern 8 is (-,-,-).
    """

    l: int
    m: int
    n: int
    pattern: int

    def __post_init__(self) -> None:
        if min(self.l, self.m, self.n) < 1:
            raise ValueError("variable indices start at 1")
        if not 1 <= self.pattern <= 8:
            raise ValueError("polarity pattern must be in 1..8")

    def literals(self) -> tuple[tuple[int, bool], ...]:
        """(variable, is_positive) triple in clause order."""
        bits = self.pattern - 1
        return (
            (self.l, not bits & 4),
            (self.m, not bits & 2),
            (self.n, not bits & 1),
        )


@dataclass(frozen=True)
class CnfFormula:
    """A set of 3-literal clause shapes over variables 1..k."""

    k: int
    clauses: frozenset[ClauseShape]

    def __post_init__(self) -> None:
        object.__setattr__(self, "clauses", frozenset(self.clauses))
        if self.k < 0:
            raise ValueError("variable count must be >= 0")
        for clause in self.clauses:
            if max(clause.l, clause.m, clause.n) > self.k:
                raise ValueError(f"clause {clause} exceeds variable count {self.k}")


def clause_count(k: int) -> int:
    return 8 * k**3


def phi(index: int, k: int) -> ClauseShape:
    """Clause number -> clause shape (lexicographic in (l, m, n, pattern))."""
    if not 1 <= index <= clause_count(k):
        raise ValueError(f"clause index {index} out of range 1..{clause_count(k)}")
    rest, p = divmod(index - 1, 8)
    rest, n = divmod(rest, k)
    l, m = divmod(rest, k)
    return ClauseShape(l + 1, m + 1, n + 1, p + 1)


def phi_inv(shape: ClauseShape, k: int) -> int:
    """Clause shape -> clause number; inverse of :func:`phi`."""
    if max(shape.l, shape.m, shape.n) > k:
        raise ValueError(f"clause {shape} exceeds variable count {k}")
    return (((shape.l - 1) * k + (shape.m - 1)) * k + (shape.n - 1)) * 8 + shape.pattern


def encode_cnf(formula: CnfFormula) -> tuple[bool, ...]:
    """Bit vector of length 8k^3 with a t exactly at each present clause."""
    bits = [False] * clause_count(formula.k)
    for clause in formula.clauses:
        bits[phi_inv(clause, formula.k) - 1] = True
    return tuple(bits)


def decode(bits: Sequence[bool], k: int) -> CnfFormula:
    """Formula named by a bit vector; inverse of :func:`encode_cnf`."""
    if len(bits) != clause_count(k):
        raise ValueError(f"encoding must have length {clause_count(k)}, got {len(bits)}")
    return CnfFormula(k, frozenset(phi(j + 1, k) for j, b in enumerate(bits) if b))


def encoding_to_text(bits: Iterable[bool]) -> str:
    return "".join("t" if b else "f" for b in bits)


def parse_encoding(text: str) -> tuple[bool, ...]:
    if not set(text) <= {"t", "f"}:
        raise ParseError("encoding must consist of t/f characters")
    return tuple(map({"t": True, "f": False}.__getitem__, text))


def canonical_clause(literals: Sequence[tuple[int, bool]]) -> ClauseShape:
    """Canonical shape of three literals: variables ascending, + before -."""
    if len(literals) != 3:
        raise ValueError("a clause consists of exactly 3 literals")
    ordered = sorted(literals, key=lambda lit: (lit[0], not lit[1]))
    (l, pl), (m, pm), (n, pn) = ordered
    pattern = 1 + (not pl) * 4 + (not pm) * 2 + (not pn)
    return ClauseShape(l, m, n, pattern)


def parse_dimacs(text: str) -> CnfFormula:
    """DIMACS-style input: ``p cnf k c`` then c clauses of exactly 3 literals.

    Numbers are ASCII decimal; a literal may have a leading ``-``. Lines are
    read once, in order, so an error names the first bad line, and a clause
    line before the header is refused.
    """
    header: tuple[int, int] | None = None
    clauses: set[ClauseShape] = set()
    current: list[tuple[int, bool]] = []
    total = 0
    for lineno, line in enumerate(text.split("\n"), 1):
        fields = line.split()
        if not fields or fields[0].startswith("c"):
            continue
        if fields[0] == "p":
            if header is not None:
                raise ParseError("duplicate header", lineno)
            if len(fields) != 4 or fields[1] != "cnf":
                raise ParseError("header must be 'p cnf <vars> <clauses>'", lineno)
            k, expected = header = (
                parse_decimal(fields[2], "variable count", lineno), parse_decimal(fields[3], "clause count", lineno)
            )
            continue
        if header is None:
            raise ParseError("missing 'p cnf' header", lineno)
        for token in fields:
            value = parse_decimal(token, "literal", lineno, signed=True)
            if value == 0:
                if len(current) != 3:
                    raise ParseError(f"clause must have exactly 3 literals, got {len(current)}", lineno)
                shape = canonical_clause(current)
                if max(shape.l, shape.m, shape.n) > k:
                    raise ParseError(f"variable index exceeds declared count {k}", lineno)
                clauses.add(shape)
                total += 1
                current = []
            else:
                current.append((abs(value), value > 0))
    if header is None:
        raise ParseError("missing 'p cnf' header")
    if current:
        raise ParseError("unterminated clause (missing 0)")
    if total != expected:
        raise ParseError(f"header announced {expected} clauses, found {total}")
    return CnfFormula(k, frozenset(clauses))


def _check_text(shape: ClauseShape) -> str:
    """The text of :func:`check_snippet`."""
    return "; #2; ".join(f"{'+' if positive else '-'}aux:{variable}.get" for variable, positive in shape.literals())


def check_snippet(shape: ClauseShape) -> InstructionSequence:
    """Five instructions testing whether the aux-register assignment satisfies the clause.

    One test per literal (positive test for a positive literal), each of the
    first two followed by a forward skip; execution falls past the end iff
    some literal holds.
    """
    return parse(_check_text(shape))


def _next_text(k: int) -> str:
    """The text of :func:`next_snippet`."""
    if k < 1:
        raise ValueError("k must be >= 1")
    steps = [f"-aux:{i}.get; #3; aux:{i}.set:f; #{3 if i == k else 5}; aux:{i}.set:t; " for i in range(1, k + 1)]
    return f"{''.join(steps)}!f"


def next_snippet(k: int) -> InstructionSequence:
    """Assignment advancer over aux:1..aux:k (aux:1 flips fastest).

    Starting from all t, each pass produces the next assignment; after the
    all-f assignment the registers are reset to t and the program terminates
    with reply f.
    """
    return parse(_next_text(k))


def gen_3sat_length(k: int) -> int:
    """Length of :func:`gen_3sat`'s program: 72k^3 + 5k + 1.

    Every clause check but the last takes 9 instructions and the last 8, the
    NEXT snippet 5k + 1, and the backward jump 1.
    """
    return 72 * k**3 + 5 * k + 1


def gen_3sat_text(k: int) -> str:
    """Canonical text of the satisfiability decider for formulas over k variables, using one backward jump.

    Input registers in:1..in:8k^3 hold the formula encoding; aux:1..aux:k
    hold the candidate assignment. Each clause is probed and, when present,
    checked; a check that fails chains length-9 jumps to the NEXT snippet,
    and a check that holds falls through to the next probe. Total length is
    :func:`gen_3sat_length`.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    total = clause_count(k)
    checks = [f"-in:{m}.get; #8; {_check_text(phi(m, k))}; #2; #9; " for m in range(1, total)]
    last = f"-in:{total}.get; #6; {_check_text(phi(total, k))}; !t; "
    return f"{''.join(checks)}{last}{_next_text(k)}; \\#{gen_3sat_length(k) - 1}"  # back to position 1


def gen_3sat(k: int) -> InstructionSequence:
    """:func:`gen_3sat_text` as a sequence, one instruction per distinct token."""
    return parse(gen_3sat_text(k))


def brute_sat(formula: CnfFormula) -> bool:
    """Exhaustive satisfiability check, the oracle for the generated programs."""
    if formula.k > 20:
        raise InfeasibleArityError(f"brute force over 2^{formula.k} assignments refused")
    clauses = [clause.literals() for clause in formula.clauses]
    for assignment in itertools.product((True, False), repeat=formula.k):
        if all(any(assignment[v - 1] == positive for v, positive in lits) for lits in clauses):
            return True
    return False
