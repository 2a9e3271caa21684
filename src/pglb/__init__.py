"""Instruction sequences with relative jumps, their thread semantics, Boolean
register services, and loop-free program synthesis with brute-force
verification."""

from .errors import (
    InfeasibleArityError,
    MalformedCircuitError,
    ParseError,
    StateSpaceCapExceeded,
)
from .isa import (
    Action,
    Basic,
    BwdJump,
    Focus,
    FwdJump,
    GET,
    Instruction,
    InstructionSequence,
    NegTest,
    PosTest,
    SET_F,
    SET_T,
    TAU,
    TERM_F,
    TERM_T,
    Termination,
    parse,
    render,
)
from .threads import (
    DEADLOCK,
    Deadlock,
    FiniteThread,
    Post,
    PostNode,
    RegularThread,
    S_MINUS,
    S_PLUS,
    SMinus,
    SPlus,
    aip_equal,
    bisimilar,
    project,
    render_term,
    thread_equations,
    thread_from_term,
    thread_to_dot,
)
from .extraction import extract, extract_at
from .services import (
    BooleanRegister,
    REG_D,
    REG_F,
    REG_T,
    Reply,
    ServiceFamily,
    boolean_register,
    compose,
    encapsulate,
    register_family,
)
from .interaction import TraceStep, compute, reply, trace, use_apply
from .synthesis import (
    AND,
    Circuit,
    Gate,
    GateRef,
    InputRef,
    NOT,
    OR,
    PartialBooleanFunction,
    compile_3sat_loopfree,
    compile_circuit,
    compile_truth_table,
    format_netlist,
    format_truth_table,
    parse_netlist,
    parse_truth_table,
    truth_table_length,
)
from .sat3 import (
    ClauseShape,
    CnfFormula,
    brute_sat,
    canonical_clause,
    check_snippet,
    clause_count,
    decode,
    encode_cnf,
    encoding_to_text,
    gen_3sat,
    gen_3sat_length,
    next_snippet,
    parse_dimacs,
    parse_encoding,
    phi,
    phi_inv,
)
from .oracle import EquivalenceReport, Mismatch, equivalence_check, eval_circuit

__version__ = "0.1.0"
