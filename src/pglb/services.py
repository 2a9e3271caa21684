"""Services, Boolean registers and named service families.

A service processes methods: each request yields a reply in {t, f, d} and a
derived service. Reply d means the request is rejected and the service
degenerates to the empty service, which rejects everything. Services are
grouped into families keyed by focus; composing two families that share a
focus collapses that focus to the empty service.
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


class Service:
    """Behavioural contract: reply to a method and derive the follow-up service.

    ``state_key`` must identify the current state uniquely among the states
    the service can reach (and must not contain ``;`` or ``=``); it is what
    makes divergence detection exact. Empty services all share one key.
    """

    def reply(self, method: str) -> Reply:
        raise NotImplementedError

    def derive(self, method: str) -> "Service":
        raise NotImplementedError

    def state_key(self) -> str:
        raise NotImplementedError

    def is_empty(self) -> bool:
        return False


@dataclass(frozen=True)
class EmptyService(Service):
    """Rejects every request; the collapse target for focus clashes."""

    def reply(self, method: str) -> Reply:
        return Reply.D

    def derive(self, method: str) -> "EmptyService":
        return self

    def state_key(self) -> str:
        return "empty"

    def is_empty(self) -> bool:
        return True


EMPTY = EmptyService()


@dataclass(frozen=True)
class BooleanRegister(Service):
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

    def state_key(self) -> str:
        return "empty" if self.value is Reply.D else f"reg:{self.value}"

    def is_empty(self) -> bool:
        return self.value is Reply.D


REG_T = BooleanRegister(Reply.T)
REG_F = BooleanRegister(Reply.F)
REG_D = BooleanRegister(Reply.D)


def boolean_register(value: Reply | bool) -> BooleanRegister:
    value = Reply.of(value)
    return {Reply.T: REG_T, Reply.F: REG_F, Reply.D: REG_D}[value]


class ServiceFamily:
    """Immutable association of foci to services.

    Equality is extensional: same foci, pairwise state-equal services. The
    canonical signature string doubles as the family part of configuration
    keys during interaction.
    """

    __slots__ = ("_services", "_signature")

    def __init__(self, services: Mapping[Focus, Service] | Iterable[tuple[Focus, Service]] = ()):
        self._services: dict[Focus, Service] = dict(services)
        self._signature: str | None = None

    @staticmethod
    def empty() -> "ServiceFamily":
        return _EMPTY_FAMILY

    @staticmethod
    def singleton(focus: Focus, service: Service) -> "ServiceFamily":
        return ServiceFamily({focus: service})

    def get(self, focus: Focus) -> Service | None:
        return self._services.get(focus)

    def foci(self) -> frozenset[Focus]:
        return frozenset(self._services)

    def items(self) -> list[tuple[Focus, Service]]:
        return sorted(self._services.items(), key=lambda pair: str(pair[0]))

    def replaced(self, focus: Focus, service: Service) -> "ServiceFamily":
        if self._services.get(focus) is service:
            return self
        updated = dict(self._services)
        updated[focus] = service
        return ServiceFamily(updated)

    def signature(self) -> str:
        if self._signature is None:
            self._signature = ";".join(f"{focus}={svc.state_key()}" for focus, svc in self.items())
        return self._signature

    def __contains__(self, focus: Focus) -> bool:
        return focus in self._services

    def __len__(self) -> int:
        return len(self._services)

    def __iter__(self) -> Iterator[Focus]:
        return iter(self._services)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ServiceFamily):
            return NotImplemented
        return self.signature() == other.signature()

    def __hash__(self) -> int:
        return hash(self.signature())

    def __repr__(self) -> str:
        return f"ServiceFamily({self.signature() or 'empty'})"


_EMPTY_FAMILY = ServiceFamily()


def compose(left: ServiceFamily, right: ServiceFamily) -> ServiceFamily:
    """Union of families; a focus present in both collapses to the empty service."""
    merged = dict((focus, left.get(focus)) for focus in left)
    for focus in right:
        merged[focus] = EMPTY if focus in merged else right.get(focus)
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
