"""The generators write program text: what they write, pinned, and what it computes.

``compile tt``, ``compile circuit`` and ``gen 3sat`` print the text that
``truth_table_text``, ``circuit_text`` and ``gen_3sat_text`` build from
strings. The pinned SHA-256 digests below were taken of the stdout of the
same commands at the commit before the generators wrote text (0c2ef83), when
each program was built instruction by instruction and then rendered; so
the text functions write those programs byte for byte. The library's
generators are ``parse`` of the text. The table text's property sits with
the table properties in ``test_text_properties``.
"""

import hashlib
import itertools
import random

from hypothesis import given, settings, strategies as st

from pglb import (
    AND,
    Circuit,
    Gate,
    GateRef,
    InputRef,
    NOT,
    OR,
    PartialBooleanFunction,
    compute,
    equivalence_check,
    eval_circuit,
    gen_3sat,
    parse,
    render,
)
from pglb.cli import main
from pglb.synthesis import circuit_text

PROPERTY_SETTINGS = settings(max_examples=300, deadline=None)


def table_file(seed: int, arity: int) -> str:
    """A seeded table file with t, f and u entries, rows in lexicographic order."""
    rng = random.Random(seed)
    rows = (f"{''.join(bits)} {rng.choice('tfu')}".strip() for bits in itertools.product("tf", repeat=arity))
    return "".join(f"{line}\n" for line in (f"k {arity}", *rows))


def netlist_file(seed: int, inputs: int, gates: int) -> str:
    """A seeded NOT/AND/OR netlist whose operands are inputs or earlier gates."""
    rng = random.Random(seed)
    lines = [f"inputs {inputs}"]
    for number in range(1, gates + 1):
        def operand():
            if number > 1 and rng.random() < 0.5:
                return f"g{rng.randint(1, number - 1)}"
            return f"x{rng.randint(1, inputs)}"

        op = rng.choice(("NOT", "AND", "OR"))
        lines.append(f"g{number} = {op} {operand()}" + ("" if op == "NOT" else f" {operand()}"))
    return "".join(f"{line}\n" for line in lines)


# The three nullary tables are t, u and f.
TABLES = {
    f"tt-{seed}-{arity}": table_file(seed, arity) for seed, arity in ((1, 0), (5, 0), (7, 0), (4, 1), (2, 5), (6, 10))
}
NETLISTS = {
    f"net-{seed}-{inputs}-{gates}": netlist_file(seed, inputs, gates)
    for seed, inputs, gates in ((7, 1, 1), (8, 3, 6), (9, 8, 12), (10, 8, 40))
}

# SHA-256 of each command's stdout at commit 0c2ef83, computed there by stdout_digests.
PINNED = {
    "gen-3sat-1": "045b250dcb743cf7c3a191e3be2174b3d331e29bb77761108ee4fb0090466786",
    "gen-3sat-2": "7e7fb2ea24efff5fdc7be03638caf30d08b871496f8cdd1adfe29dc337b8d11d",
    "gen-3sat-3": "b1387948cd64304cdb28ee543fa1ba4b90e2df4e6773ed15f0725112138e2c89",
    "gen-3sat-4": "fe7073ce3f19fa8208124f75b88cce58834370a5cf8d0be08c8c582d15c82f49",
    "gen-3sat-5": "e7a13c229474ce596b7ed5ec523e7b3658757c8f7f113362841332befb20667c",
    "gen-3sat-6": "9ebe62564a5a08f6b273ff94afc7bc61af6e57692e1b954f1f972eb146380b6e",
    "tt-1-0": "651f4a07eeb175f453b3e037ec3b891a0a542b8efd4e698aedb08c8675d43a4f",
    "tt-5-0": "3d0514185746ee70095cb7d671c38522094268b4f0c46283ca13bb7c8841fadb",
    "tt-7-0": "a7b6c4b1e4a8b3aaa4e255cafbe1f92dfb73cb75078b0ad3419da90914abbe89",
    "tt-4-1": "c512f4575f82ca8c1e5fdf7624285cae9c4f992e7d154460f908a6ced0ac1b3b",
    "tt-2-5": "97f89c444f3b5abaf3201f070b98e696cdd7eb23a4bbcffacf1c7a895bef6a7a",
    "tt-6-10": "1dc91caf88bf0ae576daf0a0af6c6cb87bbe17e1bb4d41fdacd86fe1ba4b9467",
    "net-7-1-1": "3c3d1a282eeef72e6606ae85362d3dcf306bdfd4c55720fd6fd1630cad5868f0",
    "net-8-3-6": "0c2a7ef1270e5cd78c95f2e6ce4184765b3fd4c341ab53d5c15dbf29a1279b26",
    "net-9-8-12": "544a92b9612caddd578e999b680ecea3eac87b421c64cdf6089cabc6a962ffb4",
    "net-10-8-40": "50591dca7f9aab9ce210dbbdd26a62331243bbdec6f7355214bf183329674ae7",
}


def stdout_digests(tmp_path, capsys) -> dict[str, str]:
    """The SHA-256 of each generator command's stdout, by case name; every command exits 0."""
    commands = {f"gen-3sat-{k}": ["gen", "3sat", "-k", str(k)] for k in range(1, 7)}
    for kind, files in (("tt", TABLES), ("circuit", NETLISTS)):
        for name, text in files.items():
            path = tmp_path / name
            path.write_text(text, encoding="utf-8")
            commands[name] = ["compile", kind, str(path)]
    digests = {}
    for name, argv in commands.items():
        assert main(argv) == 0, name
        digests[name] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    return digests


def test_generator_output_is_byte_identical_to_the_pinned_programs(tmp_path, capsys):
    assert stdout_digests(tmp_path, capsys) == PINNED


def test_the_decider_shares_one_instruction_per_distinct_token():
    program = gen_3sat(4)
    assert len(program) == 4629
    assert len({id(u) for u in program.instructions}) == 537


@st.composite
def circuits(draw) -> Circuit:
    inputs = draw(st.integers(1, 6))
    gates = []
    for number in range(1, draw(st.integers(1, 12)) + 1):
        refs = st.builds(InputRef, st.integers(1, inputs))
        if number > 1:
            refs = refs | st.builds(GateRef, st.integers(1, number - 1))
        op = draw(st.sampled_from((NOT, AND, OR)))
        gates.append(Gate(op, draw(refs)) if op == NOT else Gate(op, draw(refs), draw(refs)))
    return Circuit(inputs, tuple(gates))


@PROPERTY_SETTINGS
@given(circuits())
def test_circuit_text_is_canonical_and_computes_its_circuit(circuit):
    text = circuit_text(circuit)
    program = parse(text)
    assert render(program) == text
    fn = PartialBooleanFunction.from_callable(circuit.input_count, lambda bits: eval_circuit(circuit, bits))
    aux = len(circuit.gates)
    assert equivalence_check(program, fn, aux).ok
    for bits in fn.inputs():
        assert compute(program, list(bits), aux).value == "tf"[not eval_circuit(circuit, bits)]
