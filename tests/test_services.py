"""Boolean registers, the empty service and service-family algebra."""

import random

import pytest

from pglb import (
    Focus,
    GET,
    REG_D,
    REG_F,
    REG_T,
    Reply,
    SET_F,
    SET_T,
    ServiceFamily,
    boolean_register,
    compose,
    encapsulate,
    register_family,
)
from thelpers import TEST_FOCI, random_family

ALL_VALUES = (Reply.T, Reply.F, Reply.D)
ALL_METHODS = (GET, SET_T, SET_F)


def test_register_derivation_table():
    assert REG_T.derive(SET_T) == REG_T
    assert REG_F.derive(SET_T) == REG_T
    assert REG_D.derive(SET_T) == REG_D
    assert REG_T.derive(SET_F) == REG_F
    assert REG_F.derive(SET_F) == REG_F
    assert REG_D.derive(SET_F) == REG_D
    for value in ALL_VALUES:
        assert boolean_register(value).derive(GET) == boolean_register(value)


def test_register_replies():
    assert REG_T.reply(GET) is Reply.T
    assert REG_F.reply(GET) is Reply.F
    for reg in (REG_T, REG_F):
        assert reg.reply(SET_T) is Reply.T
        assert reg.reply(SET_F) is Reply.T
    for method in ALL_METHODS:
        assert REG_D.reply(method) is Reply.D


def test_unknown_methods_are_rejected():
    assert REG_T.reply("push") is Reply.D
    assert REG_T.derive("push") == REG_D


def test_sink_condition_holds_exhaustively():
    # Whenever a reply is d, the derived service must be the one empty
    # service, and that service rejects everything.
    for value in ALL_VALUES:
        register = boolean_register(value)
        for method in ALL_METHODS + ("weird",):
            if register.reply(method) is Reply.D:
                sink = register.derive(method)
                assert sink == REG_D
                assert all(sink.reply(m) is Reply.D for m in ALL_METHODS + ("other",))
                assert all(sink.derive(m) == REG_D for m in ALL_METHODS)


def test_register_set_is_closed_under_derivation():
    universe = {boolean_register(v) for v in ALL_VALUES}
    for value in ALL_VALUES:
        for method in ALL_METHODS + ("weird",):
            assert boolean_register(value).derive(method) in universe


def test_divergent_register_equals_empty_service():
    # REG_D is the empty service: it rejects every method and stays itself.
    assert boolean_register(Reply.D) is REG_D
    for method in ALL_METHODS + ("push",):
        assert REG_D.reply(method) is Reply.D and REG_D.derive(method) is REG_D


def test_compose_with_empty_family_is_identity():
    rng = random.Random(21)
    for _ in range(100):
        family = random_family(rng)
        assert compose(family, ServiceFamily()) == family
        assert compose(ServiceFamily(), family) == family


def test_compose_clash_collapses_to_empty_service():
    focus = Focus.named("p")
    collapsed = compose(
        ServiceFamily({focus: REG_T}), ServiceFamily({focus: REG_F})
    )
    assert collapsed == ServiceFamily({focus: REG_D})
    # Even two copies of the same service collapse.
    same = compose(ServiceFamily({focus: REG_T}), ServiceFamily({focus: REG_T}))
    assert same == ServiceFamily({focus: REG_D})


def test_compose_disjoint_union():
    family = compose(
        ServiceFamily({Focus.named("1"): REG_T}),
        ServiceFamily({Focus.named("2"): REG_F}),
    )
    assert family.get(Focus.named("1")) == REG_T
    assert family.get(Focus.named("2")) == REG_F
    assert set(family) == {Focus.named("1"), Focus.named("2")}
    # Membership goes through iteration over the foci.
    assert Focus.named("1") in family and Focus.named("3") not in family


def test_compose_commutative_and_associative():
    rng = random.Random(22)
    for _ in range(200):
        u, v, w = (random_family(rng) for _ in range(3))
        assert compose(u, v) == compose(v, u)
        assert compose(compose(u, v), w) == compose(u, compose(v, w))


def test_encapsulate_axioms():
    rng = random.Random(23)
    assert encapsulate({Focus.named("p")}, ServiceFamily()) == ServiceFamily()
    focus = Focus.named("p")
    assert encapsulate({focus}, ServiceFamily({focus: REG_T})) == ServiceFamily()
    assert encapsulate(
        {Focus.named("q")}, ServiceFamily({focus: REG_T})
    ) == ServiceFamily({focus: REG_T})
    for _ in range(100):
        u, v = random_family(rng), random_family(rng)
        hidden = {f for f in TEST_FOCI if rng.random() < 0.5}
        assert encapsulate(set(), u) == u
        assert encapsulate(hidden, compose(u, v)) == compose(
            encapsulate(hidden, u), encapsulate(hidden, v)
        )


def test_encapsulate_drops_only_named_foci():
    family = compose(
        ServiceFamily({Focus.named("1"): REG_T}),
        ServiceFamily({Focus.named("2"): REG_F}),
    )
    remaining = encapsulate({Focus.named("1")}, family)
    assert remaining == ServiceFamily({Focus.named("2"): REG_F})


def test_register_family_builds_both_register_files():
    use, rep = register_family([True, False], 0)
    assert use == ServiceFamily()
    assert rep.get(Focus.input(1)) == REG_T
    assert rep.get(Focus.input(2)) == REG_F

    use, rep = register_family([], 2)
    assert rep == ServiceFamily()
    assert use.get(Focus.aux(1)) == REG_T
    assert use.get(Focus.aux(2)) == REG_T


def test_register_family_accepts_divergent_inputs():
    _, rep = register_family([Reply.D], 0)
    assert rep == ServiceFamily({Focus.input(1): REG_D})


def test_register_family_rejects_negative_aux():
    with pytest.raises(ValueError):
        register_family([], -1)


def test_family_signature_is_order_independent():
    a = ServiceFamily({Focus.named("p"): REG_T, Focus.named("q"): REG_F})
    b = ServiceFamily({Focus.named("q"): REG_F, Focus.named("p"): REG_T})
    assert a == b and a.pairs == b.pairs and hash(a) == hash(b)
    # A family equals no other kind of value, not even its own pairs.
    assert a.__eq__(a.pairs) is NotImplemented and a != a.pairs
    focus = Focus.named("p")
    assert repr(ServiceFamily({focus: REG_T})) == f"ServiceFamily({{{focus!r}: {REG_T!r}}})"


def test_replaced_preserves_identity_for_noop_updates():
    family = ServiceFamily({Focus.named("p"): REG_T})
    register = family.get(Focus.named("p"))
    assert family.replaced(Focus.named("p"), register) is family
    assert family.replaced(Focus.named("p"), REG_F) is not family
