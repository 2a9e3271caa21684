"""The run layer certified on every small program (bounded-exhaustive).

Every program of up to ``MAX_LENGTH`` instructions over a fixed alphabet is
checked: its compiled form against the reference compiler, every run
against the specification ``reply(use_apply(extract(p), aux), inputs)``
with no input and one and with no aux register and one, the one-pass reply
sets against a walk per input, each trace's last reply against the run's,
and its thread against the thread of the program with each jump chain
rewritten as one jump. Within that bound every counterexample is found, and
every run of the module finds the same.

The alphabet has one register of each bank, so no two programs differ only
by renaming registers. Its rows are every kind the compiler makes: input
and aux gets, a write of each value (``in:1.set:t`` is seen on input f,
``aux:1.set:f`` on an aux register, which starts at t), aux:0 (never
served), an unknown method, both terminations, and jumps: ``#2`` leaves the
program past its end from the last two positions, ``\\#2`` past its start
from the first two, and ``#2; x; \\#2`` is a jump cycle. A walk whose
``set:f`` keeps the bit, a backward jump that lands one position off and a
served bound one too high or too low, for inputs or for aux, each fail it.
The Hypothesis properties in ``test_core_properties`` cover longer programs.
"""

import itertools

from pglb import (
    Action,
    Basic,
    BwdJump,
    Focus,
    FwdJump,
    InstructionSequence,
    NegTest,
    PosTest,
    Reply,
    TERM_F,
    TERM_T,
    bisimilar,
    extract,
    register_family,
    reply,
    trace,
    use_apply,
)
from pglb.interaction import reply_sets, walk
from thelpers import compiled_differences, direct_jump, jump_landing

MAX_LENGTH = 4
IN_1, AUX_1 = Focus.input(1), Focus.aux(1)
ALPHABET = {
    "+in:1.get": PosTest(Action("get", IN_1)),
    "in:1.set:t": Basic(Action("set:t", IN_1)),
    "-aux:1.get": NegTest(Action("get", AUX_1)),
    "aux:1.set:f": Basic(Action("set:f", AUX_1)),
    "+aux:0.get": PosTest(Action("get", Focus.aux(0))),
    "in:1.flip": Basic(Action("flip", IN_1)),
    "#2": FwdJump(2),
    "\\#2": BwdJump(2),
    "!t": TERM_T,
    "!f": TERM_F,
}
# The register families of the specification: by aux count the use family, by input vector the reply family.
USE_FAMILIES = {aux_count: register_family((), aux_count)[0] for aux_count in (0, 1)}
REPLY_FAMILIES = {inputs: register_family(inputs)[1] for inputs in ((), (True,), (False,))}


def faults(tokens: tuple[str, ...]) -> list[str]:
    """What the run layer gets wrong on the program spelt by ``tokens``: empty when nothing."""
    body = tuple(map(ALPHABET.__getitem__, tokens))
    sequence = InstructionSequence(body)
    compiled = sequence.compiled  # compile_text(render(sequence))
    found = compiled_differences(sequence, compiled)
    thread = extract(compiled)
    for aux_count, use_family in USE_FAMILIES.items():
        used = use_apply(thread, use_family)
        walked = {}
        for inputs, reply_family in REPLY_FAMILIES.items():
            index = sum(bit << i for i, bit in enumerate(inputs))
            got = walk(compiled, index, len(inputs), aux_count)
            if got is not reply(used, reply_family):
                found.append(f"walk on {inputs} with aux {aux_count}")
            if trace(compiled, list(inputs), aux_count)[-1].reply is not got:
                found.append(f"trace on {inputs} with aux {aux_count}")
            walked.setdefault(len(inputs), {Reply.T: 0, Reply.F: 0, Reply.D: 0})[got] |= 1 << index
        for input_count, masks in walked.items():
            sets = reply_sets(compiled, input_count, aux_count)
            if sets is not None and sets != (masks[Reply.T], masks[Reply.F], masks[Reply.D]):
                found.append(f"reply sets of {input_count} inputs with aux {aux_count}")
    direct = tuple(
        direct_jump(p, jump_landing(body, p), len(body)) if isinstance(u, (FwdJump, BwdJump)) else u
        for p, u in enumerate(body, 1)
    )
    if direct != body and not bisimilar(thread, extract(InstructionSequence(direct))):
        found.append("thread after jump chains rewritten")
    return found


def test_every_small_program_runs_by_the_specification():
    programs = itertools.chain.from_iterable(itertools.product(ALPHABET, repeat=n) for n in range(1, MAX_LENGTH + 1))
    failures = {"; ".join(tokens): found for tokens in programs if (found := faults(tokens))}
    assert not failures, f"{len(failures)} programs fail, among them {list(failures.items())[:5]}"
