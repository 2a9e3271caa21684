"""Thread terms and finite-state thread graphs.

A thread describes the behaviour of a sequential program: it terminates with
a Boolean reply (S+ or S-), deadlocks (D), or performs an action and
continues along one of two branches depending on the reply. Finite threads
are trees; regular threads are finite graphs whose infinite unrolling is the
behaviour. ``project`` truncates behaviour after a given number of actions,
and two regular threads are interchangeable exactly when they are bisimilar.
Projecting twice keeps the shallower cut, so ``aip_equal`` compares the two
projections at one depth only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .isa import Action


@dataclass(frozen=True)
class SPlus:
    def __str__(self) -> str:
        return "S+"


@dataclass(frozen=True)
class SMinus:
    def __str__(self) -> str:
        return "S-"


@dataclass(frozen=True)
class Deadlock:
    def __str__(self) -> str:
        return "D"


@dataclass(frozen=True, eq=False)
class Post:
    """Postconditional composition: run the action, branch on its reply.

    Projections share equal subterms, so a term is a graph whose unfolding
    can be exponentially larger. Equality and hashing work on that graph
    without recursion: the hash is computed once from the children's, and
    equality visits each pair of nodes at most once.
    """

    action: Action
    then_branch: "FiniteThread"
    else_branch: "FiniteThread"
    _hash: int = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash((self.action, self.then_branch, self.else_branch)))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Post):
            return NotImplemented
        pending: list[tuple[FiniteThread, FiniteThread]] = [(self, other)]
        matched: set[tuple[int, int]] = set()
        while pending:
            left, right = pending.pop()
            if left is right:
                continue
            if not (isinstance(left, Post) and isinstance(right, Post)):
                if left != right:
                    return False
                continue
            if left._hash != right._hash or left.action != right.action:
                return False
            pair = (id(left), id(right))
            if pair not in matched:
                matched.add(pair)
                pending.append((left.then_branch, right.then_branch))
                pending.append((left.else_branch, right.else_branch))
        return True


FiniteThread = SPlus | SMinus | Deadlock | Post

S_PLUS = SPlus()
S_MINUS = SMinus()
DEADLOCK = Deadlock()


@dataclass(frozen=True)
class PostNode:
    """Graph form of a postconditional: branch targets are state ids."""

    action: Action
    then_state: int
    else_state: int


StateLabel = SPlus | SMinus | Deadlock | PostNode


@dataclass(frozen=True)
class RegularThread:
    """Finite-state thread: one label per state, a distinguished root.

    Equivalent to a finite guarded recursive specification with one equation
    per state.
    """

    states: tuple[StateLabel, ...]
    root: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "states", tuple(self.states))
        if not self.states:
            raise ValueError("a regular thread needs at least one state")
        if not 0 <= self.root < len(self.states):
            raise ValueError(f"root {self.root} out of range")
        for label in self.states:
            if isinstance(label, PostNode):
                for target in (label.then_state, label.else_state):
                    if not 0 <= target < len(self.states):
                        raise ValueError(f"dangling state reference {target}")


def thread_from_term(term: FiniteThread) -> RegularThread:
    """Regular-thread form of a finite term (shared subterms become one state)."""
    # States in depth-first preorder, then-branch first; one per distinct node.
    slot: dict[int, int] = {}
    nodes: list[FiniteThread] = []
    stack = [term]
    while stack:
        t = stack.pop()
        if id(t) in slot:
            continue
        slot[id(t)] = len(nodes)
        nodes.append(t)
        if isinstance(t, Post):
            stack.append(t.else_branch)
            stack.append(t.then_branch)
    labels: list[StateLabel] = [
        PostNode(t.action, slot[id(t.then_branch)], slot[id(t.else_branch)])
        if isinstance(t, Post)
        else t
        for t in nodes
    ]
    return RegularThread(tuple(labels), 0)


def project(thread: RegularThread, depth: int) -> FiniteThread:
    """Approximation up to ``depth``: cut the behaviour after that many actions.

    Depth 0 is always D; a postconditional at depth n+1 keeps its action and
    projects both branches at depth n. Equal subterms are built once: each
    (state, depth) is projected once, and a table keyed by the action and
    its children's identities returns one shared node per distinct term.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    states = thread.states
    memo: dict[tuple[int, int], FiniteThread] = {}
    shared: dict[tuple[Action, int, int], Post] = {}
    stack = [(thread.root, depth)]
    while stack:
        key = stack[-1]
        if key in memo:
            stack.pop()
            continue
        state, n = key
        label = states[state]
        if n == 0 or isinstance(label, Deadlock):
            memo[key] = DEADLOCK
        elif isinstance(label, SPlus):
            memo[key] = S_PLUS
        elif isinstance(label, SMinus):
            memo[key] = S_MINUS
        else:
            then_key, else_key = (label.then_state, n - 1), (label.else_state, n - 1)
            if then_key not in memo or else_key not in memo:
                stack.append(then_key)
                stack.append(else_key)
                continue
            then_branch, else_branch = memo[then_key], memo[else_key]
            # Children are nodes of this table or leaves, so their identities name their terms.
            node_key = (label.action, id(then_branch), id(else_branch))
            node = shared.get(node_key)
            if node is None:
                node = shared[node_key] = Post(label.action, then_branch, else_branch)
            memo[key] = node
        stack.pop()
    return memo[(thread.root, depth)]


def _label_class(label: StateLabel):
    if isinstance(label, PostNode):
        return ("post", label.action)
    return (str(label),)


def bisimilar(left: RegularThread, right: RegularThread) -> bool:
    """Behavioural equality of regular threads, by Hopcroft and Karp's union-find.

    Sound and complete for finite graphs. Starting from the two roots, each
    pair of states assumed equal merges two classes; merged states must
    carry the same label class (the same action, or the same terminal), and
    their then-successors and their else-successors are assumed equal in
    turn. Each merge pushes at most two pairs, so the work is nearly linear
    in the number of states.
    """
    offset = len(left.states)
    labels = list(left.states) + [
        PostNode(l.action, l.then_state + offset, l.else_state + offset)
        if isinstance(l, PostNode)
        else l
        for l in right.states
    ]
    parent = list(range(len(labels)))

    def find(state: int) -> int:
        root = state
        while parent[root] != root:
            root = parent[root]
        while parent[state] != root:  # path compression
            parent[state], state = root, parent[state]
        return root

    pending = [(left.root, right.root + offset)]
    while pending:
        a, b = pending.pop()
        root_a, root_b = find(a), find(b)
        if root_a == root_b:
            continue
        parent[root_a] = root_b
        label_a, label_b = labels[a], labels[b]
        if _label_class(label_a) != _label_class(label_b):
            return False
        if isinstance(label_a, PostNode):
            pending.append((label_a.then_state, label_b.then_state))
            pending.append((label_a.else_state, label_b.else_state))
    return True


def aip_equal(left: RegularThread, right: RegularThread, depth: int) -> bool:
    """True when all projections up to ``depth`` coincide as terms.

    Projecting a projection keeps the shallower cut, so the projections at
    ``depth`` coincide exactly when all shallower ones do: one comparison
    decides. With no depth to compare (``depth`` < 0) the answer is True.
    """
    return depth < 0 or project(left, depth) == project(right, depth)


def _render(root: object, expand: Callable[[object, bool], "str | tuple[Action, object, object]"]) -> str:
    """The text of the term at ``root``, whose nodes ``expand(node, top)`` describes.

    ``expand`` gives a node's text (a leaf or a name) or its (action, then,
    else); ``top`` holds for ``root`` alone. A node reads ``a ∘ X`` when both
    branches are equal and ``X ⊴ a ⊵ Y`` otherwise, in parentheses when it
    is a branch of another.
    """
    out: list[str] = []
    pending: list = [root]  # pending output, last first: literal text or a node
    top = True
    while pending:
        node = pending.pop()
        if node.__class__ is str:
            out.append(node)
            continue
        found = expand(node, top)  # its text, or its (action, then, else)
        if found.__class__ is str:
            out.append(found)
        elif found[1] is found[2] or found[1] == found[2]:
            out.append(f"{found[0]} ∘ ")
            pending.append(found[1])
        elif top:
            pending += [found[2], f" ⊴ {found[0]} ⊵ ", found[1]]
        else:
            out.append("(")
            pending += [")", found[2], f" ⊴ {found[0]} ⊵ ", found[1]]
        top = False
    return "".join(out)


def render_term(term: FiniteThread) -> str:
    """Readable form: ``a ∘ T`` for action prefix, ``T ⊴ a ⊵ T'`` otherwise."""
    return _render(term, lambda t, top: (t.action, t.then_branch, t.else_branch) if isinstance(t, Post) else str(t))


def thread_equations(thread: RegularThread) -> str:
    """Recursive-specification view, one line per named state (root is E0).

    The root and each action state with two or more distinct predecessors
    get a name; the rest is inlined. Inlining ends: every cycle reachable
    from the root contains the root or is entered at a state with two
    distinct predecessors, one outside the cycle and one on it.
    """
    states, root = thread.states, thread.root
    # Reachable states in preorder, then-branch first, and each one's count of distinct predecessors.
    order: dict[int, None] = {}
    refs: dict[int, int] = {}
    stack = [root]
    while stack:
        state = stack.pop()
        if state in order:
            continue
        order[state] = None
        label = states[state]
        if isinstance(label, PostNode):
            succs = dict.fromkeys((label.then_state, label.else_state))
            for succ in succs:
                refs[succ] = refs.get(succ, 0) + 1
            stack.extend(reversed(succs))

    named: dict[int, str] = {}
    for state in order:
        if state == root or (isinstance(states[state], PostNode) and refs[state] >= 2):
            named[state] = f"E{len(named)}"

    def expand(state: int, top: bool) -> str | tuple[Action, int, int]:
        # A named state is defined on its own line and referred to by name everywhere else.
        if state in named and not top:
            return named[state]
        label = states[state]
        return (label.action, label.then_state, label.else_state) if isinstance(label, PostNode) else str(label)

    return "\n".join(f"{name} = {_render(state, expand)}" for state, name in named.items())


def thread_to_dot(thread: RegularThread) -> str:
    """Graphviz dot export: one node per state, t/f edges per postconditional."""
    lines = ["digraph thread {", "  start [shape=point];", f"  start -> s{thread.root};"]
    for state, label in enumerate(thread.states):
        if isinstance(label, PostNode):
            lines.append(f'  s{state} [label="{label.action}"];')
            lines.append(f'  s{state} -> s{label.then_state} [label="t"];')
            lines.append(f'  s{state} -> s{label.else_state} [label="f"];')
        else:
            lines.append(f'  s{state} [label="{label}", shape=box];')
    lines.append("}")
    return "\n".join(lines)
