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
from collections.abc import Sequence

from .errors import MuddError, read_text
from .model import CausalityEdge, CounterNamespace, MuDD, Node, Record


class Diagnostic(Record):
    _fields = ("kind", "line", "col", "message")

    def __init__(self, kind: str, line: int, col: int, message: str):
        # kind: syntax-error | unknown-counter | duplicate-label | empty-switch |
        #       unreachable-statement | duplicate-case | unknown-label
        self._set(kind=kind, line=line, col=col, message=message)


class DslParseError(MuddError):
    """Parse failed; carries every diagnostic, in source order, and reads
    as one `origin:line:col: kind: message` line per diagnostic."""

    def __init__(self, diagnostics: Sequence[Diagnostic], origin: str = "<inline>"):
        self.diagnostics = tuple(sorted(diagnostics, key=lambda d: (d.line, d.col)))
        super().__init__("\n".join(f"{origin}:{d.line}:{d.col}: {d.kind}: {d.message}"
                                   for d in self.diagnostics))


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

    def __init__(self, tokens: list[_Token], ns: CounterNamespace | None):
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

    def expect_word(self, what: str) -> str | None:
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

    def register(self, label: _Token | None, node_id: int | None) -> None:
        if label is None:
            return
        if label.text in self.labels:
            self.note("duplicate-label", label, f"label {label.text!r} is already defined")
        elif node_id is not None:
            self.labels[label.text] = node_id

    def node(self, hooks, tok, label, kind: str, name: str | None) -> int:
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
            dangling: list[tuple[int, str | None]] = []
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


def parse(text: str, ns: CounterNamespace | None = None, origin: str = "<inline>") -> MuDD:
    """Parse source text into a MuDD.

    With ns=None the namespace is inferred from counter statements in order of
    first appearance. Raises DslParseError carrying every diagnostic, each
    prefixed with `origin`.
    """
    tokens, diags = _tokenize(text)
    parser = _Parser(tokens, ns)
    try:
        hooks = parser.block((), [])
    except RecursionError:  # each nested switch costs the descent a few frames
        tok = parser.peek()
        raise DslParseError([Diagnostic("syntax-error", tok.line, tok.col,
                                        "switches nested too deeply to parse")], origin) from None
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
        raise DslParseError(diags, origin)

    # a decision's out-edges go in case order: an empty case's edge is only
    # made at the rejoin, after the edges of the cases below it
    causality: list[CausalityEdge] = []
    for node_id, edges in enumerate(parser.out):
        if node_id in parser.cases:
            values = parser.cases[node_id]
            edges.sort(key=lambda e: values.index(e.value))
        causality.extend(edges)
    return MuDD(
        nodes=tuple(parser.nodes),
        causality=tuple(causality),
        happens_before=tuple(hb),
        entry=0,
        namespace=ns if ns is not None else CounterNamespace(parser.counters),
    )


def parse_file(path, ns: CounterNamespace | None = None) -> MuDD:
    return parse(read_text(path, str(path)), ns, str(path))

