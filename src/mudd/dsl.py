"""Textual description language for diagrams.

Statements:

    action <name>;
    counter <name>;
    done;
    switch (<property>) { case <value>: <statements> ... }
    order <labelA> -> <labelB>;
    <label>: <statement>

Blocks run in sequence; switch branches rejoin at the statement after the
switch; the end of the top-level block is an implicit `done`. `order`
declares a happens-before edge between two labeled statements. `#` starts a
comment. There are no functions, loops, or variables beyond decision
properties; anything else is a syntax error.

Parsing is one pass with no syntax tree. One regular expression splits the
text into tokens, and a recursive descent over them builds the diagram as it
goes: a statement makes its node, in-edges and label, and reports what is
wrong with them, as soon as it is parsed (a switch as soon as its header is,
before its cases). An `order` is resolved at the end, since it may name a
label defined below it.

Code that cannot run (statements after `done` or after a switch whose every
case ends in `done`, the body of a repeated case, the body of a case whose
value did not parse) is still parsed, so its syntax errors and empty
switches are reported. It builds nothing, and it gets none of the
diagnostics that need a built diagram: unknown-counter, duplicate-label,
duplicate-case and unknown-label. In a block that runs, each statement after
its end is reported as an unreachable-statement; the statements nested in
dead code are not.
"""
from __future__ import annotations

import re
from collections import namedtuple
from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import MuddError
from .model import CausalityEdge, CounterNamespace, MuDD, Node


@dataclass(frozen=True)
class DslSource:
    """Raw text plus an origin tag used in diagnostics."""

    text: str
    origin: str = "<inline>"


@dataclass(frozen=True)
class Diagnostic:
    kind: str  # syntax-error | unknown-counter | duplicate-label | empty-switch |
    #            unreachable-statement | duplicate-case | unknown-label
    line: int
    col: int
    message: str


class DslParseError(MuddError):
    """Parse failed; carries every diagnostic, in source order."""

    def __init__(self, diagnostics: Sequence[Diagnostic], origin: str = "<inline>"):
        self.diagnostics = tuple(sorted(diagnostics, key=lambda d: (d.line, d.col)))
        self.origin = origin
        super().__init__(format_diagnostics(self.diagnostics, origin))


def format_diagnostics(diagnostics: Sequence[Diagnostic], origin: str = "<inline>") -> str:
    """Stable, position-annotated report; one line per diagnostic, source order."""
    ordered = sorted(diagnostics, key=lambda d: (d.line, d.col))
    return "\n".join(f"{origin}:{d.line}:{d.col}: {d.kind}: {d.message}" for d in ordered)


# ---------------------------------------------------------------------------
# parser

_KEYWORDS = frozenset({"action", "counter", "done", "switch", "case", "order"})
_TOKEN_RE = re.compile(
    r"(?P<newline>\n)|(?P<space>[ \t\r]+)|(?P<comment>#[^\n]*)"
    r"|(?P<punct>->|[;:{}()])|(?P<word>[A-Za-z0-9_$.]+)|(?P<bad>.)",
    re.DOTALL,
)
_Token = namedtuple("_Token", "kind text line col")  # kind: word | punct | eof


def _tokenize(text: str) -> tuple[list[_Token], list[Diagnostic]]:
    tokens: list[_Token] = []
    diags: list[Diagnostic] = []
    line, line_start = 1, 0
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "newline":
            line, line_start = line + 1, m.end()
        elif kind in ("word", "punct"):
            tokens.append(_Token(kind, m.group(), line, m.start() - line_start + 1))
        elif kind == "bad":
            diags.append(Diagnostic("syntax-error", line, m.start() - line_start + 1,
                                    f"unexpected character {m.group()!r}"))
    # a comment that runs to the end of the text leaves the end at its '#'
    last = text[line_start:]
    end = last.find("#")
    tokens.append(_Token("eof", "", line, (end if end >= 0 else len(last)) + 1))
    return tokens, diags


class _Parser:
    """Recursive descent that builds the diagram as it consumes tokens.

    A hook is a pending causality edge, (src node, case value or None); the
    next node built takes every pending hook as an in-edge. Hooks are None
    where no path runs: after `done`, after a switch whose every case ends in
    `done`, and in dead code, which is parsed but builds nothing.
    """

    def __init__(self, tokens: list[_Token], ns: Optional[CounterNamespace]):
        self.tokens = tokens
        self.pos = 0
        self.ns = ns
        # syntax-error and empty-switch first, then the other kinds: the
        # order in which a stable sort by position reports ties
        self.syntax: list[Diagnostic] = []
        self.semantic: list[Diagnostic] = []
        self.nodes: list[Node] = []
        self.out: list[list[CausalityEdge]] = []  # out-edges of each node
        self.labels: dict[str, int] = {}
        self.cases: dict[int, list[str]] = {}  # decision node -> case values
        self.orders: list[tuple[_Token, str, str]] = []
        self.counters: dict[str, None] = {}  # inferred namespace, in order

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def error(self, tok: _Token, message: str) -> None:
        self.syntax.append(Diagnostic("syntax-error", tok.line, tok.col, message))

    def note(self, kind: str, tok: _Token, message: str) -> None:
        self.semantic.append(Diagnostic(kind, tok.line, tok.col, message))

    def expected(self, what: str) -> None:
        tok = self.peek()
        self.error(tok, f"expected {what}, found {tok.text!r}" if tok.text else f"expected {what}")

    def expect_punct(self, text: str) -> None:
        if self.peek()[:2] == ("punct", text):
            self.advance()
        else:
            self.expected(repr(text))

    def expect_word(self, what: str) -> Optional[str]:
        if self.peek().kind == "word":
            return self.advance().text
        self.expected(what)
        return None

    def sync(self) -> None:
        # panic-mode recovery: skip to the next statement boundary
        while True:
            tok = self.peek()
            if tok.kind == "eof" or tok[:2] == ("word", "case"):
                return
            self.advance()
            if tok.kind == "punct" and tok.text in (";", "}"):
                return

    def runs(self, hooks, unreachable: bool, tok: _Token) -> bool:
        """Whether the statement parsed at `tok` builds anything."""
        if hooks is None and unreachable:
            self.note("unreachable-statement", tok, "statement after done is unreachable")
        return hooks is not None

    def register(self, label: Optional[_Token], node_id: Optional[int]) -> None:
        if label is None:
            return
        if label.text in self.labels:
            self.note("duplicate-label", label, f"label {label.text!r} is already defined")
        elif node_id is not None:
            self.labels[label.text] = node_id

    def node(self, hooks, tok, label, kind: str, name: Optional[str]) -> int:
        node_id = len(self.nodes)
        if kind == "counter":
            if self.ns is not None and name not in self.ns:
                self.note("unknown-counter", tok, f"counter {name!r} is not in the namespace")
            self.counters[name] = None
        self.nodes.append(Node(node_id=node_id, kind=kind, name=name,
                               label=label.text if label else None))
        self.out.append([])
        self.register(label, node_id)
        for src, value in hooks:
            self.out[src].append(CausalityEdge(src=src, dst=node_id, value=value))
        return node_id

    def block(self, stop: tuple[str, ...], hooks):
        """Statements up to eof or a token in `stop`; returns the dangling hooks.

        In a block that runs (hooks not None on entry), each statement after
        its end is reported unreachable; a dead block reports none.
        """
        live = hooks is not None
        while self.peek().kind != "eof" and self.peek().text not in stop:
            hooks = self.statement(hooks, live and hooks is None)
        return hooks

    def statement(self, hooks, unreachable: bool):
        """One statement, optionally labeled; returns the hooks after it."""
        label = None
        tok = self.peek()
        if (tok.kind == "word" and tok.text not in _KEYWORDS
                and self.tokens[self.pos + 1][:2] == ("punct", ":")):
            label = self.advance()
            self.advance()
        tok = self.peek()
        if tok.kind != "word":
            self.expected("a statement")
            self.advance()
            return hooks
        keyword = tok.text

        if keyword in ("action", "counter"):
            self.advance()
            name = self.expect_word("an event name" if keyword == "action" else "a counter name")
            if name is None:
                self.sync()
                return hooks
            self.expect_punct(";")
            if not self.runs(hooks, unreachable, tok):
                return None
            kind = "event" if keyword == "action" else "counter"
            return [(self.node(hooks, tok, label, kind, name), None)]

        if keyword == "done":
            self.advance()
            self.expect_punct(";")
            if self.runs(hooks, unreachable, tok):
                self.node(hooks, tok, label, "done", None)
            return None

        if keyword == "order":
            self.advance()
            first = self.expect_word("a statement label")
            second = None
            if first is not None:
                self.expect_punct("->")
                second = self.expect_word("a statement label")
            if second is None:
                self.sync()
                return hooks
            self.expect_punct(";")
            if self.runs(hooks, unreachable, tok):
                self.register(label, None)
                self.orders.append((tok, first, second))
            return hooks

        if keyword == "switch":
            self.advance()
            self.expect_punct("(")
            prop = self.expect_word("a property name") or "?"
            self.expect_punct(")")
            self.expect_punct("{")
            node_id = None
            if self.runs(hooks, unreachable, tok):
                node_id = self.node(hooks, tok, label, "decision", prop)
            values: list[str] = []
            dangling: list[tuple[int, Optional[str]]] = []
            while True:
                case = self.peek()
                if case.kind == "eof":
                    self.error(case, "unterminated switch; expected '}'")
                    break
                if case[:2] == ("punct", "}"):
                    self.advance()
                    break
                if case[:2] != ("word", "case"):
                    self.expected("'case' or '}'")
                    self.sync()
                    continue
                self.advance()
                value = self.expect_word("a case value")
                self.expect_punct(":")
                # a case whose value failed to parse, or repeats, is dead code
                entry = None
                if value is not None and node_id is not None:
                    if value in values:
                        self.note("duplicate-case", case,
                                  f"case {value!r} appears twice in one switch")
                    else:
                        entry = [(node_id, value)]
                if value is not None:
                    values.append(value)
                dangling += self.block(("case", "}"), entry) or ()
            if not values:
                self.syntax.append(Diagnostic("empty-switch", tok.line, tok.col, "switch has no cases"))
            if node_id is None:
                return None
            self.cases[node_id] = values
            return dangling or None

        self.error(tok, f"unknown statement {keyword!r}")
        self.advance()
        self.sync()
        return hooks


def parse(
    src: DslSource | str,
    ns: Optional[CounterNamespace] = None,
) -> MuDD:
    """Parse source text into a MuDD.

    With ns=None the namespace is inferred from counter statements in order of
    first appearance. Raises DslParseError carrying every diagnostic.
    """
    if isinstance(src, str):
        src = DslSource(text=src)
    tokens, diags = _tokenize(src.text)
    parser = _Parser(tokens, ns)
    hooks = parser.block((), [])
    if hooks or not parser.nodes:  # the implicit `done` at the end of the text
        parser.node(hooks, None, None, "done", None)
    # orders resolve last: a label may be defined below the order naming it
    hb: list[tuple[int, int]] = []
    for tok, first, second in parser.orders:
        missing = [name for name in (first, second) if name not in parser.labels]
        for name in missing:
            parser.note("unknown-label", tok, f"order references undefined label {name!r}")
        if not missing:
            hb.append((parser.labels[first], parser.labels[second]))
    diags += parser.syntax + parser.semantic
    if diags:
        raise DslParseError(diags, src.origin)

    # a decision's out-edges go in case order: an empty case's edge is only
    # made at the rejoin, after the edges of the cases below it
    causality: list[CausalityEdge] = []
    for node_id, edges in enumerate(parser.out):
        if node_id in parser.cases:
            values = parser.cases[node_id]
            edges.sort(key=lambda e: values.index(e.value))
        causality.extend(edges)
    model = MuDD(
        nodes=tuple(parser.nodes),
        causality=tuple(causality),
        happens_before=tuple(hb),
        entry=0,
        namespace=ns if ns is not None else CounterNamespace(parser.counters),
    )
    model.validate()
    return model


def parse_file(path, ns: Optional[CounterNamespace] = None) -> MuDD:
    with open(path, "r", encoding="utf-8") as fh:
        return parse(DslSource(text=fh.read(), origin=str(path)), ns)


# ---------------------------------------------------------------------------
# pretty printer


_SINK = -1


def _immediate_postdominators(model: MuDD) -> dict[int, int]:
    """ipdom over causality edges, with a virtual sink below every done node."""
    order = _topo_order(model)
    depth: dict[int, int] = {_SINK: 0}
    ipdom: dict[int, int] = {}

    def nca(a: int, b: int) -> int:
        while a != b:
            if depth[a] < depth[b]:
                b = ipdom[b] if b != _SINK else _SINK
            else:
                a = ipdom[a] if a != _SINK else _SINK
        return a

    for node_id in reversed(order):
        succs = [e.dst for e in model.out_edges[node_id]] or [_SINK]
        cand = succs[0]
        for s in succs[1:]:
            cand = nca(cand, s)
        ipdom[node_id] = cand
        depth[node_id] = depth[cand] + 1
    return ipdom


def _topo_order(model: MuDD) -> list[int]:
    indeg = {n.node_id: 0 for n in model.nodes}
    for e in model.causality:
        indeg[e.dst] += 1
    ready = [n.node_id for n in model.nodes if indeg[n.node_id] == 0]
    out: list[int] = []
    while ready:
        nid = ready.pop()
        out.append(nid)
        for e in model.out_edges[nid]:
            indeg[e.dst] -= 1
            if indeg[e.dst] == 0:
                ready.append(e.dst)
    return out


def format_model(model: MuDD) -> str:
    """Render a diagram back to source text.

    Recovers block structure from the causality DAG. A switch's cases rejoin
    at the immediate postdominator of its decision node; when some case ends
    in `done`, that is the virtual sink, and the cases that do not end in
    `done` rejoin instead at the first node (in topological order) that two
    of them reach. A case that never rejoins stops where its enclosing case
    does. Diagrams built by parse() print each node exactly once; arbitrary
    hand-built DAGs may print shared tails more than once, which preserves
    the path set and signatures.
    """
    ipdom = _immediate_postdominators(model)
    position = {nid: i for i, nid in enumerate(_topo_order(model))}
    lines: list[str] = []
    emitted: set[int] = set()
    hb_nodes = {nid for edge in model.happens_before for nid in edge}
    labels: dict[int, str] = {}
    for n in model.nodes:
        if n.label is not None:
            labels[n.node_id] = n.label
    used = set(labels.values())
    for nid in sorted(hb_nodes):
        if nid not in labels:
            candidate = f"n{nid}"
            while candidate in used:
                candidate += "_"
            labels[nid] = candidate
            used.add(candidate)

    def prefix(node_id: int) -> str:
        return f"{labels[node_id]}: " if node_id in labels else ""

    def rejoin(decision: int) -> int:
        if ipdom[decision] != _SINK:
            return ipdom[decision]
        first_case: dict[int, int] = {}  # node -> first case that reaches it
        shared = []
        for case, edge in enumerate(model.out_edges[decision]):
            todo, seen = [edge.dst], {edge.dst}
            while todo:
                node_id = todo.pop()
                if first_case.setdefault(node_id, case) != case:
                    shared.append(node_id)
                for e in model.out_edges[node_id]:
                    if e.dst not in seen:
                        seen.add(e.dst)
                        todo.append(e.dst)
        return min(shared, key=position.__getitem__, default=_SINK)

    def emit_chain(node_id: int, stop: int, indent: int) -> None:
        pad = "    " * indent
        current = node_id
        while current != stop:
            node = model.node(current)
            if current in emitted and current in labels:
                raise MuddError(
                    f"cannot print: labeled node {current} is shared between branches"
                )
            emitted.add(current)
            if node.kind == "event":
                lines.append(f"{pad}{prefix(current)}action {node.name};")
                current = model.out_edges[current][0].dst
            elif node.kind == "counter":
                lines.append(f"{pad}{prefix(current)}counter {node.name};")
                current = model.out_edges[current][0].dst
            elif node.kind == "done":
                lines.append(f"{pad}{prefix(current)}done;")
                return
            elif node.kind == "decision":
                cont = rejoin(current)
                lines.append(f"{pad}{prefix(current)}switch ({node.name}) {{")
                for e in model.out_edges[current]:
                    lines.append(f"{pad}    case {e.value}:")
                    emit_chain(e.dst, stop if cont == _SINK else cont, indent + 2)
                lines.append(f"{pad}}}")
                if cont == _SINK:
                    return
                current = cont

    # order declarations go first so they are never unreachable after a done
    for src, dst in model.happens_before:
        lines.append(f"order {labels[src]} -> {labels[dst]};")
    emit_chain(model.entry, _SINK, 0)
    return "\n".join(lines) + "\n"
