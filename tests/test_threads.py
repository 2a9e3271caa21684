"""Projection, bisimilarity and term/graph utilities."""

import random
import re
import time

import pytest

from pglb import (
    Action,
    DEADLOCK,
    Post,
    PostNode,
    RegularThread,
    S_MINUS,
    S_PLUS,
    aip_equal,
    bisimilar,
    project,
    render_term,
    thread_equations,
    thread_from_term,
    thread_to_dot,
)
from thelpers import (
    duplicate_state,
    leaf,
    permute_states,
    random_thread,
    reference_bisimilar,
    reference_project,
)

A, B, C, D_ACT = Action("a"), Action("b"), Action("c"), Action("d")

# Two-state loop: first an a step, then b selects between looping through c
# and a final d-test deciding the reply.
LOOP_GRAPH = RegularThread(
    (
        PostNode(A, 1, 1),
        PostNode(B, 2, 3),
        PostNode(C, 1, 1),
        PostNode(D_ACT, 4, 5),
        S_PLUS,
        S_MINUS,
    ),
    0,
)


def test_projection_depth_zero_is_deadlock():
    rng = random.Random(1)
    for _ in range(20):
        assert project(random_thread(rng), 0) == DEADLOCK


def test_projection_of_loop_graph_matches_hand_expansion():
    assert project(LOOP_GRAPH, 1) == Post(A, DEADLOCK, DEADLOCK)
    b_then_d = Post(B, DEADLOCK, DEADLOCK)
    assert project(LOOP_GRAPH, 2) == Post(A, b_then_d, b_then_d)
    b_branches = Post(B, Post(C, DEADLOCK, DEADLOCK), Post(D_ACT, DEADLOCK, DEADLOCK))
    assert project(LOOP_GRAPH, 3) == Post(A, b_branches, b_branches)


def _post_nodes(term):
    """The distinct postconditional nodes of a term graph."""
    found, pending = {}, [term]
    while pending:
        node = pending.pop()
        if isinstance(node, Post) and id(node) not in found:
            found[id(node)] = node
            pending += [node.then_branch, node.else_branch]
    return found.values()


def test_projection_matches_its_definition():
    # Copies of a state give two states one term, which must come out as one node.
    rng = random.Random(26)
    for trial in range(2000):
        thread = random_thread(rng, max_states=6)
        if trial % 3 == 0:
            thread = duplicate_state(rng, thread)
        depth = rng.randint(0, 12)
        term, want = project(thread, depth), reference_project(thread, depth)
        assert term == want, (thread, depth)
        assert render_term(term) == render_term(want)
        for node in _post_nodes(term):
            assert (node.then_branch is node.else_branch) == (node.then_branch == node.else_branch), (thread, depth)


class CountingAction(Action):
    """An action that counts the calls of its hash."""

    hashes = 0

    def __hash__(self) -> int:
        CountingAction.hashes += 1
        return super().__hash__()


def test_projection_hashes_each_action_once_per_node():
    loop = RegularThread((PostNode(CountingAction("a"), 0, 0),), 0)
    CountingAction.hashes = 0
    term = project(loop, 1000)
    assert len(thread_from_term(term).states) == 1001
    assert CountingAction.hashes <= 1000


def test_projection_composes_via_minimum():
    rng = random.Random(2)
    for _ in range(50):
        thread = random_thread(rng)
        m, n = rng.randrange(8), rng.randrange(8)
        assert project(thread_from_term(project(thread, m)), n) == project(thread, min(m, n))


def test_bisimilar_identity_and_unrolling():
    dead = leaf(DEADLOCK)
    assert bisimilar(dead, dead)
    one_state = RegularThread((PostNode(A, 0, 0),), 0)
    two_state = RegularThread((PostNode(A, 1, 1), PostNode(A, 0, 0)), 0)
    assert bisimilar(one_state, two_state)
    assert not bisimilar(one_state, leaf(S_PLUS))


def test_bisimilar_distinguishes_branch_roles():
    left = RegularThread((PostNode(A, 1, 2), S_PLUS, S_MINUS), 0)
    right = RegularThread((PostNode(A, 2, 1), S_PLUS, S_MINUS), 0)
    assert not bisimilar(left, right)
    assert bisimilar(left, left)


def test_bisimilar_is_an_equivalence_on_samples():
    rng = random.Random(3)
    for _ in range(60):
        t = random_thread(rng)
        u = permute_states(rng, t)
        v = duplicate_state(rng, u)
        assert bisimilar(t, t)
        assert bisimilar(t, u) and bisimilar(u, t)
        assert bisimilar(u, v)
        assert bisimilar(t, v)  # transitivity along the constructed chain


def test_bisimilar_matches_partition_refinement():
    rng = random.Random(6)
    for trial in range(3000):
        t = random_thread(rng, max_states=6)
        if trial % 3 == 0:
            u = duplicate_state(rng, permute_states(rng, t))
        else:
            u = random_thread(rng, max_states=6)
        assert bisimilar(t, u) == reference_bisimilar(t, u)


def test_bisimilar_compares_long_chains_quickly():
    loop = RegularThread((PostNode(A, 0, 0),), 0)
    chain = thread_from_term(project(loop, 20_000))
    same = thread_from_term(project(loop, 20_000))
    shorter = thread_from_term(project(loop, 19_999))
    assert len(chain.states) == 20_001
    started = time.perf_counter()
    assert bisimilar(chain, same)
    assert not bisimilar(chain, shorter)
    assert time.perf_counter() - started < 1.0


def test_aip_reflexive():
    rng = random.Random(4)
    for _ in range(10):
        thread = random_thread(rng)
        assert aip_equal(thread, thread, 100)


def test_aip_separates_loop_from_single_step():
    loop = RegularThread((PostNode(A, 0, 0),), 0)
    once = RegularThread((PostNode(A, 1, 1), DEADLOCK), 0)
    assert aip_equal(loop, once, 1)
    assert not aip_equal(loop, once, 2)
    assert aip_equal(loop, once, -1) is True  # no depth to compare


def test_aip_witness_bound_agrees_with_bisimilarity():
    # For graphs of at most 5 states, disagreement must show up by depth 26.
    rng = random.Random(5)
    for trial in range(150):
        t = random_thread(rng, max_states=5)
        if trial % 3 == 0:
            u = duplicate_state(rng, permute_states(rng, t))
        else:
            u = random_thread(rng, max_states=5)
        depth = 5 * 5 + 1
        assert bisimilar(t, u) == aip_equal(t, u, depth)


def test_thread_from_term_round_trips_behaviour():
    term = Post(A, Post(B, S_PLUS, S_PLUS), S_MINUS)
    thread = thread_from_term(term)
    assert project(thread, 5) == term
    assert bisimilar(thread, thread_from_term(term))


def test_render_term_spells_prefix_and_branches():
    assert render_term(S_PLUS) == "S+"
    b_then_d = Post(B, DEADLOCK, DEADLOCK)
    assert render_term(Post(A, b_then_d, b_then_d)) == "a ∘ b ∘ D"
    branches = Post(B, S_PLUS, S_MINUS)
    nested = Post(A, branches, branches)
    assert render_term(nested) == "a ∘ (S+ ⊴ b ⊵ S-)"


def test_equations_name_loop_states_only():
    text = thread_equations(LOOP_GRAPH)
    assert text.splitlines() == [
        "E0 = a ∘ E1",
        "E1 = c ∘ E1 ⊴ b ⊵ (S+ ⊴ d ⊵ S-)",
    ]


def test_equations_for_leaf_root():
    assert thread_equations(leaf(S_PLUS)) == "E0 = S+"


def test_equations_name_the_root_and_every_state_with_two_predecessors():
    rng = random.Random(48)
    cycles_off_root = 0
    for _ in range(3000):
        shape = random_thread(rng, max_states=8)
        # One action per state, so the actions on a line show which states it defines and inlines.
        labels = tuple(
            PostNode(Action(f"q{s}"), label.then_state, label.else_state) if isinstance(label, PostNode) else label
            for s, label in enumerate(shape.states)
        )
        root = shape.root
        succs = [{l.then_state, l.else_state} if isinstance(l, PostNode) else set() for l in labels]
        reachable, stack = set(), [root]
        while stack:
            state = stack.pop()
            if state not in reachable:
                reachable.add(state)
                stack.extend(succs[state])
        preds = {s: {p for p in reachable if s in succs[p]} for s in reachable}
        named = {root} | {s for s in reachable if isinstance(labels[s], PostNode) and len(preds[s]) >= 2}
        cycles_off_root += not _acyclic_without(succs, reachable, {root})
        assert _acyclic_without(succs, reachable, named)

        lines = thread_equations(RegularThread(labels, root)).splitlines()
        assert len(lines) == len(named)
        defined = set()
        for number, line in enumerate(lines):
            name, body = line.split(" = ")
            assert name == f"E{number}"
            actions = {int(s) for s in re.findall(r"q(\d+)", body)}
            (state,) = {root} if number == 0 else actions & named
            defined.add(state)
            # The line inlines exactly the states reached from its own without passing a named one.
            inlined, stack = set(), [state]
            while stack:
                s = stack.pop()
                if s not in inlined and (s == state or s not in named):
                    inlined.add(s)
                    stack.extend(succs[s])
            assert actions == {s for s in inlined if isinstance(labels[s], PostNode)}
        assert defined == named
    assert cycles_off_root > 100


def _acyclic_without(succs, reachable, removed) -> bool:
    """No cycle among the reachable states outside ``removed``, by Kahn's algorithm."""
    kept = reachable - removed
    indegree = dict.fromkeys(kept, 0)
    for s in kept:
        for t in succs[s] & kept:
            indegree[t] += 1
    ready = [s for s in kept if indegree[s] == 0]
    for s in ready:  # grows while it is read
        for t in succs[s] & kept:
            indegree[t] -= 1
            if indegree[t] == 0:
                ready.append(t)
    return len(ready) == len(kept)


def test_dot_export_lists_states_and_edges():
    dot = thread_to_dot(LOOP_GRAPH)
    assert dot.startswith("digraph thread {")
    assert 's0 [label="a"]' in dot
    assert 's0 -> s1 [label="t"]' in dot
    assert 's4 [label="S+", shape=box]' in dot


def test_regular_thread_validates_references():
    with pytest.raises(ValueError):
        RegularThread((PostNode(A, 0, 5),), 0)
    with pytest.raises(ValueError):
        RegularThread((S_PLUS,), 2)


def _module_table_sizes() -> dict:
    import sys

    return {
        (name, attr): len(value)
        for name, module in list(sys.modules.items())
        if name == "pglb" or name.startswith("pglb.")
        for attr, value in vars(module).items()
        if not attr.startswith("__") and isinstance(value, (dict, list, set))
    }


def test_repeated_projections_leave_no_module_table_larger():
    project(LOOP_GRAPH, 10)
    before = _module_table_sizes()
    for _ in range(3):
        assert aip_equal(LOOP_GRAPH, LOOP_GRAPH, 400)
        deep = project(LOOP_GRAPH, 400)
        project(thread_from_term(deep), 200)
        thread_from_term(project(LOOP_GRAPH, 30))
    assert _module_table_sizes() == before


def test_deep_terms_project_render_and_compare_without_recursion():
    loop = RegularThread((PostNode(A, 0, 0),), 0)
    deep = project(loop, 20_000)
    assert render_term(deep) == "a ∘ " * 20_000 + "D"
    assert deep == project(loop, 20_000) and deep != project(loop, 19_999)
    assert project(thread_from_term(deep), 5) == project(loop, 5)
    chain = thread_from_term(deep)
    assert len(chain.states) == 20_001 and chain.states[-1] == DEADLOCK


def test_shared_terms_compare_in_linear_time():
    # The unfolding of depth 300 has about 2^300 nodes; the shared graph is small.
    left, right = project(LOOP_GRAPH, 300), project(LOOP_GRAPH, 300)
    assert left is not right and left == right and hash(left) == hash(right)
    assert left != project(LOOP_GRAPH, 299)
    # Two states with one behaviour project to one shared node.
    twins = project(RegularThread((PostNode(A, 1, 2), PostNode(B, 3, 3), PostNode(B, 3, 3), S_PLUS), 0), 3)
    assert twins.then_branch is twins.else_branch
    assert render_term(twins) == "a ∘ b ∘ S+"
