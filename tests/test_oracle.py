"""Direct evaluators and the program-vs-table equivalence sweep."""

import itertools
import random

import pytest

from pglb import (
    AND,
    Circuit,
    Gate,
    GateRef,
    InfeasibleArityError,
    InputRef,
    NOT,
    OR,
    PartialBooleanFunction,
    Reply,
    compile_circuit,
    compile_truth_table,
    equivalence_check,
    eval_circuit,
    parse,
)
from pglb.synthesis import input_vector
from thelpers import random_circuit


def test_eval_single_gates():
    assert eval_circuit(Circuit(1, (Gate(NOT, InputRef(1)),)), [True]) is False
    assert eval_circuit(Circuit(2, (Gate(AND, InputRef(1), InputRef(2)),)), [True, False]) is False
    two_gate = Circuit(2, (Gate(NOT, InputRef(1)), Gate(OR, GateRef(1), InputRef(2))))
    assert eval_circuit(two_gate, [True, False]) is False
    assert eval_circuit(two_gate, [False, False]) is True


def test_eval_rejects_arity_mismatch():
    with pytest.raises(ValueError):
        eval_circuit(Circuit(2, (Gate(AND, InputRef(1), InputRef(2)),)), [True])


def test_equivalence_check_reports_nothing_for_compiled_tables():
    for arity in (0, 1, 2):
        for entries in itertools.product((True, False, None), repeat=2**arity):
            fn = PartialBooleanFunction(arity, entries)
            report = equivalence_check(compile_truth_table(fn), fn, 0)
            assert report.ok
            assert "equivalent" in str(report)


def test_equivalence_check_flags_wrong_programs():
    constant_false = PartialBooleanFunction(0, (False,))
    report = equivalence_check(parse("!t"), constant_false, 0)
    assert not report.ok
    assert len(report.mismatches) == 1
    mismatch = report.mismatches[0]
    assert mismatch.got is Reply.T and mismatch.expected is Reply.F
    assert "got t, expected f" in str(mismatch)


def test_equivalence_check_counts_every_differing_input():
    toggles = PartialBooleanFunction.from_callable(2, lambda bs: bs[0])
    report = equivalence_check(parse("!t"), toggles, 0)
    assert len(report.mismatches) == 2  # the two rows where input 1 is f


def test_equivalence_check_arity_guard():
    import types

    oversized = types.SimpleNamespace(arity=21)  # guard fires before the table is touched
    with pytest.raises(InfeasibleArityError):
        equivalence_check(parse("!t"), oversized, 0)


def test_circuit_programs_are_verified_in_one_pass(monkeypatch):
    # A circuit program writes one aux register per gate; its sweep walks no input on its own.
    def no_walk(*_args):
        raise AssertionError("an input was walked on its own")

    monkeypatch.setattr("pglb.oracle.walk", no_walk)
    rng = random.Random(47)
    for _ in range(60):
        circuit = random_circuit(rng, max_inputs=8, max_gates=20)
        arity = circuit.input_count
        values = [eval_circuit(circuit, input_vector(j, arity)) for j in range(1 << arity)]
        entries = list(values)
        flips = sorted(rng.sample(range(1 << arity), rng.randint(0, min(3, 1 << arity))))
        for j in flips:
            entries[j] = rng.choice((not values[j], None))
        fn = PartialBooleanFunction(arity, tuple(entries))
        report = equivalence_check(compile_circuit(circuit), fn, len(circuit.gates))
        assert [(m.inputs, m.got) for m in report.mismatches] == [
            (input_vector(j, arity), Reply.of(values[j])) for j in flips
        ]
