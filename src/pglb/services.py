"""Boolean registers and named service families: the paper's one kind of service.

A register processes methods: each request yields a reply in {t, f, d} and a
derived register. Reply d means the request is rejected and the register
becomes divergent, the empty service ``REG_D``, which rejects everything.
Registers are grouped into families keyed by focus; composing two families
that share a focus collapses that focus to ``REG_D``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, Mapping

from .isa import Focus, GET, SET_F, SET_T


class Reply(Enum):
    T = "t"
    F = "f"
    D = "d"

    @staticmethod
    def of(value: "Reply | bool") -> "Reply":
        if isinstance(value, Reply):
            return value
        return Reply.T if value else Reply.F

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class BooleanRegister:
    """Three-state register over methods get, set:t and set:f.

    get reports the stored value; the set methods acknowledge with t. A
    divergent register (value d) rejects everything, so it doubles as the
    empty service. Unknown methods are rejected, which turns the register
    divergent.
    """

    value: Reply

    def reply(self, method: str) -> Reply:
        if self.value is Reply.D:
            return Reply.D
        if method == GET:
            return self.value
        if method in (SET_T, SET_F):
            return Reply.T
        return Reply.D

    def derive(self, method: str) -> "BooleanRegister":
        if self.value is Reply.D or method == GET:
            return self
        if method == SET_T:
            return self if self.value is Reply.T else REG_T
        if method == SET_F:
            return self if self.value is Reply.F else REG_F
        return REG_D


REG_T = BooleanRegister(Reply.T)
REG_F = BooleanRegister(Reply.F)
REG_D = BooleanRegister(Reply.D)


def boolean_register(value: Reply | bool) -> BooleanRegister:
    value = Reply.of(value)
    return {Reply.T: REG_T, Reply.F: REG_F, Reply.D: REG_D}[value]


class ServiceFamily:
    """Immutable association of foci to Boolean registers.

    Equality and hashing are extensional: ``pairs``, the (focus, register)
    pairs, computed when the family is built, since the use operator keys
    every new family at once as its part of a configuration key.
    """

    __slots__ = ("_services", "pairs")

    def __init__(self, services: Mapping[Focus, BooleanRegister] | Iterable[tuple[Focus, BooleanRegister]] = ()):
        self._services: dict[Focus, BooleanRegister] = dict(services)
        self.pairs: frozenset[tuple[Focus, BooleanRegister]] = frozenset(self._services.items())

    def get(self, focus: Focus) -> BooleanRegister | None:
        return self._services.get(focus)

    def replaced(self, focus: Focus, service: BooleanRegister) -> "ServiceFamily":
        if self._services.get(focus) is service:
            return self
        updated = dict(self._services)
        updated[focus] = service
        return ServiceFamily(updated)

    def __iter__(self) -> Iterator[Focus]:
        return iter(self._services)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ServiceFamily):
            return NotImplemented
        return self.pairs == other.pairs

    def __hash__(self) -> int:
        return hash(self.pairs)

    def __repr__(self) -> str:
        return f"ServiceFamily({self._services})"


def compose(left: ServiceFamily, right: ServiceFamily) -> ServiceFamily:
    """Union of families; a focus present in both collapses to the empty service ``REG_D``."""
    merged = dict((focus, left.get(focus)) for focus in left)
    for focus in right:
        merged[focus] = REG_D if focus in merged else right.get(focus)
    return ServiceFamily(merged)  # type: ignore[arg-type]


def encapsulate(hidden: Iterable[Focus], family: ServiceFamily) -> ServiceFamily:
    """Remove every service whose focus is in ``hidden``."""
    hidden = set(hidden)
    return ServiceFamily({f: family.get(f) for f in family if f not in hidden})  # type: ignore[arg-type]


def register_family(
    inputs: Iterable[Reply | bool], aux_count: int = 0
) -> tuple[ServiceFamily, ServiceFamily]:
    """Register files for a computation.

    Returns (use family, reply family): auxiliary registers aux:1..aux_count
    all initialised to t, and input registers in:i holding the given values.
    """
    if aux_count < 0:
        raise ValueError("aux_count must be >= 0")
    use = ServiceFamily({Focus.aux(i): REG_T for i in range(1, aux_count + 1)})
    rep = ServiceFamily(
        {Focus.input(i): boolean_register(b) for i, b in enumerate(inputs, 1)}
    )
    return use, rep
