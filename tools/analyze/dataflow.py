"""Intra-procedural, branch-aware dataflow engine for fhmip_analyze.

Third analysis tier, built on the cppmodel scope tracker: a structured
statement-tree parser over a function's token span (if/else, while, for,
range-for, do-while, switch with fallthrough, try/catch, return, break,
continue) and an abstract interpreter that enumerates ownership states of
move-only locals along every path. The rule layer (rules_dataflow.py)
uses it to prove packet obligations: every `PacketPtr` created by or
handed to a function must be moved out (into a terminal accounting call,
a buffer, a closure, or the caller) on every path — the static complement
of the runtime PacketLedger.

Abstract states per tracked variable:

  OWNED  definitely holds a live object (factory result, by-value param,
         true-branch of a null check)
  MAYBE  may hold one (result of an unknown call such as `pop()`, or
         passed by reference to an unknown callee which may have consumed
         it)
  MOVED  definitely empty because this path moved it out
  NULL   definitely empty for a benign reason (default-init, reset,
         refuted null check)

The interpreter is path-sensitive with null-condition refinement
(`if (p)` / `if (!p)` / `== nullptr` / `!= nullptr`, including
condition-declared variables), unrolls every loop body twice (catching
loop-carried double-moves without fixpoint iteration), and checks
obligations at each return, at each scope exit, and at function end.
Reported events:

  leak        OWNED at a return/scope end — the object is destroyed with
              no accounting call on this path
  double      a move of an already-MOVED variable — two terminal calls on
              one path
  overwrite   assignment/reset of an OWNED variable — the old object is
              destroyed silently

MAYBE at scope end is deliberately not reported (the unknown callee may
have consumed it); this under-approximation is what keeps the rule
near-zero-noise on real code. Nested lambda bodies are skipped during the
enclosing function's scan (they run later) and analyzed separately as
pseudo-functions whose tracked variables are by-value owning parameters
and move-initialized captures.

Everything here is heuristic token analysis, not a compiler; the
boundaries (configured creator calls, owning type names, sink functions)
live in roots.toml [FLOW-01].
"""

from __future__ import annotations

from dataclasses import dataclass, field

from cpplex import ID, NUM, PUNCT

OWNED = "owned"
MAYBE = "maybe"
MOVED = "moved"
NULL = "null"
# Still holds the object, but its death was accounted on this path: the
# packet was named in a call to one of the configured account_calls
# (record_drop/record_delivery/trace_packet idiom — the repo's second
# terminal form, where the packet is allowed to die in place after the
# ledger/trace write instead of being moved into a sink).
ACCOUNTED = "accounted"

# Path-state merge points keep at most this many distinct states; beyond
# it the extras are dropped (missing a finding beats fabricating one).
MAX_STATES = 64


@dataclass
class FlowConfig:
    owning_types: tuple[str, ...] = ("PacketPtr",)
    creator_calls: tuple[str, ...] = ("make_packet", "make_control", "clone")
    # Functions with these names (bare, or Class::method qualified) ARE
    # terminal accounting sinks or post-terminal handlers: their by-value
    # owning parameters are allowed to die in the body.
    sink_functions: tuple[str, ...] = ("drop",)
    # Calls that account a packet's death in place: a tracked variable
    # named anywhere in the argument list becomes ACCOUNTED and may then
    # die at scope end without a move.
    account_calls: tuple[str, ...] = ()


@dataclass
class FlowEvent:
    kind: str  # leak | double | overwrite
    var: str
    line: int


# ---------------------------------------------------------------------------
# Statement tree
# ---------------------------------------------------------------------------

@dataclass
class Simple:
    lo: int
    hi: int  # exclusive, past the ';'


@dataclass
class Block:
    stmts: list


@dataclass
class If:
    init: tuple[int, int] | None  # C++17 if-init statement span
    cond: tuple[int, int]
    then: object
    els: object | None
    line: int


@dataclass
class Loop:
    kind: str  # while | for | rangefor | do
    init: tuple[int, int] | None
    cond: tuple[int, int] | None
    step: tuple[int, int] | None
    body: object
    line: int


@dataclass
class Switch:
    init: tuple[int, int] | None
    cond: tuple[int, int]
    segments: list  # list[Block], in label order
    has_default: bool
    line: int


@dataclass
class Return:
    lo: int
    hi: int  # expression span (may be empty)
    line: int
    # `throw` also ends the path, but without an obligation check: owned
    # locals on an exception path are unwound, and flagging them would
    # punish ordinary error propagation.
    is_throw: bool = False


@dataclass
class Jump:
    kind: str  # break | continue
    line: int


@dataclass
class Try:
    body: object
    handlers: list


class ParseError(Exception):
    pass


def _match_close(toks, i, end, opener, closer):
    """Index of the token closing the group opened at `i`."""
    depth = 0
    while i < end:
        tx = toks[i].text
        if tx == opener:
            depth += 1
        elif tx == closer:
            depth -= 1
            if depth == 0:
                return i
        i += 1
    raise ParseError("unbalanced " + opener)


def _scan_semicolon(toks, i, end):
    """Index of the next ';' at group depth 0 (parens/braces/brackets)."""
    depth = 0
    while i < end:
        tx = toks[i].text
        if tx in ("(", "{", "["):
            depth += 1
        elif tx in (")", "}", "]"):
            if depth == 0:
                return i  # malformed; let the caller stop here
            depth -= 1
        elif tx == ";" and depth == 0:
            return i
        i += 1
    return end


def _split_cond(toks, lo, hi):
    """Splits an if/switch condition at a top-level ';' (the C++17
    init-statement form). Returns (init_span | None, cond_span)."""
    depth = 0
    for i in range(lo, hi):
        tx = toks[i].text
        if tx in ("(", "{", "["):
            depth += 1
        elif tx in (")", "}", "]"):
            depth -= 1
        elif tx == ";" and depth == 0:
            return (lo, i), (i + 1, hi)
    return None, (lo, hi)


def parse_block(toks, i, end):
    """Parses statements in toks[i:end]; returns Block."""
    stmts = []
    while i < end:
        node, i = parse_stmt(toks, i, end)
        if node is not None:
            stmts.append(node)
    return Block(stmts)


def parse_stmt(toks, i, end):
    while i < end and toks[i].text == ";":
        i += 1
    if i >= end:
        return None, end
    t = toks[i]

    if t.text == "{":
        close = _match_close(toks, i, end, "{", "}")
        return parse_block(toks, i + 1, close), close + 1

    if t.kind == ID and t.text == "if":
        j = i + 1
        if j < end and toks[j].text == "constexpr":
            j += 1
        if j >= end or toks[j].text != "(":
            raise ParseError("if without (")
        close = _match_close(toks, j, end, "(", ")")
        init, cond = _split_cond(toks, j + 1, close)
        then, k = parse_stmt(toks, close + 1, end)
        els = None
        if k < end and toks[k].kind == ID and toks[k].text == "else":
            els, k = parse_stmt(toks, k + 1, end)
        return If(init, cond, then, els, t.line), k

    if t.kind == ID and t.text == "while":
        close = _match_close(toks, i + 1, end, "(", ")")
        body, k = parse_stmt(toks, close + 1, end)
        return Loop("while", None, (i + 2, close), None, body, t.line), k

    if t.kind == ID and t.text == "do":
        body, k = parse_stmt(toks, i + 1, end)
        if k < end and toks[k].text == "while":
            close = _match_close(toks, k + 1, end, "(", ")")
            semi = _scan_semicolon(toks, close + 1, end)
            return Loop("do", None, (k + 2, close), None, body, t.line), \
                semi + 1
        raise ParseError("do without while")

    if t.kind == ID and t.text == "for":
        close = _match_close(toks, i + 1, end, "(", ")")
        # Range-for: a ':' at paren depth 1 before any top-level ';'.
        depth = 0
        colon = -1
        semis = []
        for k in range(i + 1, close):
            tx = toks[k].text
            if tx in ("(", "{", "["):
                depth += 1
            elif tx in (")", "}", "]"):
                depth -= 1
            elif tx == ";" and depth == 1:
                semis.append(k)
            elif tx == ":" and depth == 1 and colon == -1 and not semis:
                colon = k
        body, k = parse_stmt(toks, close + 1, end)
        if colon != -1:
            return Loop("rangefor", None, (colon + 1, close), None, body,
                        t.line), k
        if len(semis) >= 2:
            return Loop("for", (i + 2, semis[0]),
                        (semis[0] + 1, semis[1]),
                        (semis[1] + 1, close), body, t.line), k
        return Loop("for", None, None, None, body, t.line), k

    if t.kind == ID and t.text == "switch":
        close = _match_close(toks, i + 1, end, "(", ")")
        init, cond = _split_cond(toks, i + 2, close)
        if close + 1 >= end or toks[close + 1].text != "{":
            raise ParseError("switch without {")
        bclose = _match_close(toks, close + 1, end, "{", "}")
        segments, has_default = _parse_switch_body(toks, close + 2, bclose)
        return Switch(init, cond, segments, has_default, t.line), bclose + 1

    if t.kind == ID and t.text == "return":
        semi = _scan_semicolon(toks, i + 1, end)
        return Return(i + 1, semi, t.line), semi + 1

    if t.kind == ID and t.text == "throw":
        semi = _scan_semicolon(toks, i + 1, end)
        return Return(i + 1, semi, t.line, is_throw=True), semi + 1

    if t.kind == ID and t.text in ("break", "continue"):
        return Jump(t.text, t.line), i + 2  # skip the ';'

    if t.kind == ID and t.text == "try":
        body, k = parse_stmt(toks, i + 1, end)
        handlers = []
        while k < end and toks[k].kind == ID and toks[k].text == "catch":
            close = _match_close(toks, k + 1, end, "(", ")")
            h, k = parse_stmt(toks, close + 1, end)
            handlers.append(h)
        return Try(body, handlers), k

    # Plain statement up to the next top-level ';'.
    semi = _scan_semicolon(toks, i, end)
    if semi == i:  # stray closing token: malformed region
        raise ParseError("unexpected " + toks[i].text)
    return Simple(i, semi), semi + 1


def _parse_switch_body(toks, lo, hi):
    """Partitions a switch body into per-label segments (fallthrough is
    modeled by the interpreter: each segment's fall-out feeds the next)."""
    labels = []  # (kw_index, stmt_start, is_default)
    i = lo
    depth = 0
    while i < hi:
        tx = toks[i].text
        if tx in ("(", "{", "["):
            depth += 1
        elif tx in (")", "}", "]"):
            depth -= 1
        elif depth == 0 and toks[i].kind == ID and tx in ("case", "default"):
            j = i + 1
            # the ':' ending the label ('::' is a single token, so the
            # first bare ':' is it)
            while j < hi and toks[j].text != ":":
                j += 1
            labels.append((i, j + 1, tx == "default"))
            i = j
        i += 1
    segments = []
    has_default = False
    for idx, (_, start, is_default) in enumerate(labels):
        seg_end = labels[idx + 1][0] if idx + 1 < len(labels) else hi
        segments.append(parse_block(toks, start, seg_end))
        has_default = has_default or is_default
    return segments, has_default


# ---------------------------------------------------------------------------
# Ownership interpreter
# ---------------------------------------------------------------------------

class OwnershipAnalysis:
    """Runs one function-like body. `skip_spans` are nested lambda bodies
    (absolute token spans) whose tokens must not be interpreted as part of
    this body's control flow."""

    def __init__(self, toks, body_lo, body_hi, entry_state, config,
                 skip_spans=()):
        self.toks = toks
        self.lo = body_lo
        self.hi = body_hi
        self.config = config
        self.skip_spans = sorted(skip_spans)
        self.events: list[FlowEvent] = []
        self._reported: set[tuple[str, str, int]] = set()
        self.entry = dict(entry_state)
        self.failed = False

    def run(self):
        try:
            tree = parse_block(self.toks, self.lo, self.hi)
        except (ParseError, RecursionError):
            self.failed = True
            return self.events
        ctx = _ExecCtx()
        try:
            outs = self._exec(tree, [dict(self.entry)], ctx)
        except RecursionError:
            self.failed = True
            return self.events
        end_line = self.toks[self.hi].line if self.hi < len(self.toks) \
            else (self.toks[-1].line if self.toks else 1)
        for st in outs:
            self._check_exit(st, st.keys(), end_line)
        return self.events

    # -- reporting -----------------------------------------------------------

    def _report(self, kind, var, line):
        k = (kind, var, line)
        if k not in self._reported:
            self._reported.add(k)
            self.events.append(FlowEvent(kind, var, line))

    def _check_exit(self, state, vars_dying, line):
        for v in list(vars_dying):
            if state.get(v) == OWNED:
                self._report("leak", v, line)

    # -- statement dispatch ----------------------------------------------------

    def _exec(self, node, states, ctx):
        """Returns the list of fall-through states. Path-ending constructs
        (return/break/continue) produce none and park their states on ctx."""
        states = _dedup(states)
        if not states:
            return []
        if isinstance(node, Block):
            return self._exec_scope(node.stmts, states, ctx)
        if isinstance(node, Simple):
            return [self._exec_span(node.lo, node.hi, st) for st in states]
        if isinstance(node, If):
            return self._exec_if(node, states, ctx)
        if isinstance(node, Loop):
            return self._exec_loop(node, states, ctx)
        if isinstance(node, Switch):
            return self._exec_switch(node, states, ctx)
        if isinstance(node, Return):
            for st in states:
                self._exec_return(node, st)
            return []
        if isinstance(node, Jump):
            dest = ctx.breaks if node.kind == "break" else ctx.continues
            if dest is None:
                return states  # malformed / jump out of analyzed region
            dest.extend(states)
            return []
        if isinstance(node, Try):
            outs = self._exec(node.body, [dict(s) for s in states], ctx)
            for h in node.handlers:
                if h is not None:
                    outs += self._exec(h, [dict(s) for s in states], ctx)
            return _dedup(outs)
        return states

    def _exec_scope(self, stmts, states, ctx):
        entry_vars = set(states[0].keys()) if states else set()
        for s in stmts:
            states = self._exec(s, states, ctx)
            if not states:
                return []
        last_line = self._last_line(stmts)
        for st in states:
            dying = [v for v in st if v not in entry_vars]
            self._check_exit(st, dying, last_line)
            for v in dying:
                del st[v]
        return _dedup(states)

    def _last_line(self, stmts):
        for s in reversed(stmts):
            for attr in ("hi", "line"):
                v = getattr(s, attr, None)
                if isinstance(v, int):
                    if attr == "hi" and v - 1 < len(self.toks):
                        return self.toks[min(v, len(self.toks) - 1)].line
                    return v
        return self.toks[min(self.hi, len(self.toks) - 1)].line \
            if self.toks else 1

    def _exec_if(self, node, states, ctx):
        outs = []
        for st in states:
            entry_vars = set(st.keys())
            if node.init is not None:
                st = self._exec_span(node.init[0], node.init[1], st)
            declared = self._exec_cond_decl(node.cond, st)
            st = self._exec_span_events_only(node.cond, st,
                                             skip_decl=declared)
            t_st = self._refine(node.cond, dict(st), True, declared)
            f_st = self._refine(node.cond, dict(st), False, declared)
            branch_outs = []
            if t_st is not None and node.then is not None:
                branch_outs += self._exec(node.then, [t_st], ctx)
            elif t_st is not None:
                branch_outs.append(t_st)
            if f_st is not None:
                if node.els is not None:
                    branch_outs += self._exec(node.els, [f_st], ctx)
                else:
                    branch_outs.append(f_st)
            line = node.line
            for out in branch_outs:
                dying = [v for v in out if v not in entry_vars]
                self._check_exit(out, dying, line)
                for v in dying:
                    del out[v]
            outs += branch_outs
        return _dedup(outs)

    def _exec_loop(self, node, states, ctx):
        outs = []
        for st in states:
            entry_vars = set(st.keys())
            if node.init is not None:
                st = self._exec_span(node.init[0], node.init[1], st)
            exits = []
            body_ctx = _ExecCtx(breaks=[], continues=[])

            def once(s):
                """One iteration from state s: returns fall-out states
                (body fall-through + continues, after the step expr)."""
                fall = self._exec(node.body, [s], body_ctx) \
                    if node.body is not None else [s]
                fall = fall + body_ctx.continues
                body_ctx.continues = []
                if node.step is not None:
                    fall = [self._exec_span(node.step[0], node.step[1], f)
                            for f in fall]
                return _dedup(fall)

            def enter(s):
                declared = self._exec_cond_decl(node.cond, s) \
                    if node.cond else None
                s = self._exec_span_events_only(node.cond, s,
                                                skip_decl=declared) \
                    if node.cond else s
                t = self._refine(node.cond, dict(s), True, declared) \
                    if node.cond else dict(s)
                f = self._refine(node.cond, dict(s), False, declared) \
                    if node.cond else None
                return t, f

            if node.kind == "do":
                round1 = once(dict(st))
                for s in round1:
                    t, f = enter(s)
                    if f is not None:
                        exits.append(f)
                    if t is not None:
                        for s2 in once(t):
                            t2, f2 = enter(s2)
                            if f2 is not None:
                                exits.append(f2)
                            # further iterations truncated
            else:
                t0, f0 = enter(dict(st))
                if f0 is not None:
                    exits.append(f0)
                if t0 is not None:
                    for s1 in once(t0):
                        t1, f1 = enter(s1)
                        if f1 is not None:
                            exits.append(f1)
                        if t1 is not None:
                            for s2 in once(t1):
                                _, f2 = enter(s2)
                                if f2 is not None:
                                    exits.append(f2)
            exits += body_ctx.breaks
            line = node.line
            for out in exits:
                dying = [v for v in out if v not in entry_vars]
                self._check_exit(out, dying, line)
                for v in dying:
                    del out[v]
            outs += exits
        return _dedup(outs)

    def _exec_switch(self, node, states, ctx):
        outs = []
        for st in states:
            entry_vars = set(st.keys())
            if node.init is not None:
                st = self._exec_span(node.init[0], node.init[1], st)
            st = self._exec_span_events_only(node.cond, st)
            body_ctx = _ExecCtx(breaks=[], continues=ctx.continues)
            fall = []  # fallthrough from the previous segment
            exits = []
            for seg in node.segments:
                entries = _dedup([dict(st)] + fall)
                fall = self._exec(seg, entries, body_ctx)
            exits += fall + body_ctx.breaks
            # A switch with no default is treated as exhaustive: the repo
            # switches over enum classes under -Wswitch, so the no-match
            # skip path is compiler-excluded dead code and modeling it
            # would flag every all-cases-consume dispatch as a leak.
            if not node.segments:
                exits.append(dict(st))
            line = node.line
            for out in exits:
                dying = [v for v in out if v not in entry_vars]
                self._check_exit(out, dying, line)
                for v in dying:
                    del out[v]
            outs += exits
        return _dedup(outs)

    def _exec_return(self, node, state):
        toks = self.toks
        # `return var;` / `return std::move(var);` hands ownership to the
        # caller — consumption without a double-move complaint for MOVED
        # (that is caught by the inner move pattern already).
        expr = [toks[i] for i in self._span_indices(node.lo, node.hi)]
        names = [t.text for t in expr]
        var = None
        if len(names) == 1 and names[0] in state:
            var = names[0]
        state = self._exec_span(node.lo, node.hi, state)
        if var is not None and state.get(var) in (OWNED, MAYBE, ACCOUNTED):
            state[var] = MOVED
        if not node.is_throw:
            self._check_exit(state, state.keys(), node.line)

    # -- expression-level events ----------------------------------------------

    def _span_indices(self, lo, hi):
        """Token indices in [lo, hi) minus nested-lambda body spans."""
        out = []
        i = lo
        for a, b in self.skip_spans:
            if b <= lo or a >= hi:
                continue
            out.extend(range(i, max(i, a)))
            i = max(i, b)
        out.extend(range(i, hi))
        return out

    def _exec_span(self, lo, hi, state):
        """Interprets one expression/declaration span: declarations,
        moves, escapes, assignments, resets."""
        state = dict(state)
        toks = self.toks
        decl = self._parse_owned_decl(lo, hi)
        if decl is not None:
            name, init_lo, init_hi = decl
            # events inside the initializer run before the var exists
            self._scan_events(init_lo, init_hi, state)
            state[name] = self._classify_init(init_lo, init_hi, state)
            return state
        self._scan_events(lo, hi, state)
        return state

    def _exec_span_events_only(self, span, state, skip_decl=None):
        state = dict(state)
        if span is None:
            return state
        lo, hi = span
        if skip_decl is not None:
            # condition-declared variable: initializer events only
            name, init_lo, init_hi = skip_decl
            self._scan_events(init_lo, init_hi, state)
            state[name] = self._classify_init(init_lo, init_hi, state)
            return state
        self._scan_events(lo, hi, state)
        return state

    def _exec_cond_decl(self, span, state):
        if span is None:
            return None
        return self._parse_owned_decl(span[0], span[1])

    def _parse_owned_decl(self, lo, hi):
        """Detects `PacketPtr p = init` / `PacketPtr p{init}` /
        `PacketPtr p;` / `auto p = <creator>(...)` at span start. Returns
        (name, init_lo, init_hi) or None."""
        idx = self._span_indices(lo, hi)
        if len(idx) < 2:
            return None
        toks = self.toks
        i = 0
        # optional leading const (const PacketPtr is useless but harmless)
        if toks[idx[i]].text == "const":
            i += 1
        t0 = idx[i] if i < len(idx) else None
        if t0 is None or toks[t0].kind != ID:
            return None
        type_name = toks[t0].text
        is_auto = type_name == "auto"
        if not is_auto and type_name not in self.config.owning_types:
            return None
        j = i + 1
        if j >= len(idx):
            return None
        # reference/pointer declarations are not owning locals
        if toks[idx[j]].text in ("&", "&&", "*"):
            return None
        if toks[idx[j]].kind != ID:
            return None
        name = toks[idx[j]].text
        k = j + 1
        if k >= len(idx):
            return (name, hi, hi) if not is_auto else None
        nxt = toks[idx[k]].text
        if nxt == ";":
            return (name, hi, hi) if not is_auto else None
        if nxt not in ("=", "{", "("):
            return None
        init_lo = idx[k] + 1 if nxt == "=" else idx[k]
        if is_auto:
            # Only an initializer HEADED by a creator call makes an `auto`
            # local owning: `auto p = make_packet(...)` yes,
            # `auto h = std::shared_ptr<Packet>(x.clone().release())` no
            # (the result type is not the owning handle).
            first = None
            for x in self._span_indices(init_lo, hi):
                tk = toks[x]
                if tk.kind == ID and tk.text != "std":
                    first = tk.text
                    break
                if tk.kind != ID and tk.text != "::":
                    break
            if first not in self.config.creator_calls:
                return None
        return (name, init_lo, hi)

    def _classify_init(self, lo, hi, state):
        idx = self._span_indices(lo, hi)
        toks = self.toks
        names = [toks[x].text for x in idx]
        if not names or names == ["nullptr"] or set(names) <= {"{", "}"}:
            return NULL
        if any(c in names for c in self.config.creator_calls):
            return OWNED
        # `= std::move(other)` transfers the source's state
        for k, x in enumerate(idx):
            if toks[x].text == "move" and k + 2 < len(idx) \
                    and toks[idx[k + 1]].text == "(" \
                    and toks[idx[k + 2]].text in state:
                return OWNED if state[toks[idx[k + 2]].text] == OWNED \
                    else MAYBE
        return MAYBE

    def _scan_events(self, lo, hi, state):
        toks = self.toks
        idx = self._span_indices(lo, hi)
        n = len(idx)
        handled = set()  # positions consumed by a multi-token pattern
        for k in range(n):
            if k in handled:
                continue
            i = idx[k]
            t = toks[i]
            if t.kind != ID:
                continue
            nxt = toks[idx[k + 1]] if k + 1 < n else None
            nxt2 = toks[idx[k + 2]] if k + 2 < n else None
            nxt3 = toks[idx[k + 3]] if k + 3 < n else None
            prev = toks[idx[k - 1]] if k > 0 else None

            # std::move(var) / var.release()
            if t.text == "move" and nxt is not None and nxt.text == "(" \
                    and nxt2 is not None and nxt2.text in state \
                    and nxt3 is not None and nxt3.text == ")" \
                    and (prev is None or prev.text not in (".", "->")):
                self._consume(nxt2.text, state, nxt2.line)
                handled.add(k + 2)
                continue
            # account_call(... var ...): the packet's death is recorded on
            # this path — it may now die in place.
            if t.text in self.config.account_calls and nxt is not None \
                    and nxt.text == "(":
                depth = 0
                j = k + 1
                while j < n:
                    tx = toks[idx[j]].text
                    if tx == "(":
                        depth += 1
                    elif tx == ")":
                        depth -= 1
                        if depth == 0:
                            break
                    elif toks[idx[j]].kind == ID and tx in state \
                            and state[tx] in (OWNED, MAYBE):
                        state[tx] = ACCOUNTED
                    j += 1
                continue
            if t.text not in state:
                continue
            if prev is not None and prev.text in (".", "->", "::"):
                continue  # member of some other entity
            var = t.text
            if nxt is not None and nxt.text == "." and nxt2 is not None:
                if nxt2.text == "release":
                    self._consume(var, state, t.line)
                elif nxt2.text == "reset":
                    # reset() destroys; reset(x) destroys then owns x
                    if state.get(var) == OWNED:
                        self._report("overwrite", var, t.line)
                    has_arg = (k + 4 < n
                               and toks[idx[k + 4]].text != ")")
                    state[var] = MAYBE if has_arg else NULL
                continue
            if nxt is not None and nxt.text == "=":
                if state.get(var) == OWNED:
                    self._report("overwrite", var, t.line)
                rhs_lo = idx[k + 2] if k + 2 < n else hi
                state[var] = self._classify_init(rhs_lo, hi, state)
                continue
            # bare var (or &var) as a whole call argument: the callee may
            # consume it through the reference
            arg_prev = prev
            if arg_prev is not None and arg_prev.text == "&" and k >= 2:
                arg_prev = toks[idx[k - 2]]
            if arg_prev is not None and arg_prev.text in ("(", ",") \
                    and nxt is not None and nxt.text in (",", ")"):
                if state.get(var) in (OWNED, MAYBE):
                    state[var] = MAYBE

    def _consume(self, var, state, line):
        st = state.get(var)
        if st == MOVED:
            self._report("double", var, line)
            state[var] = NULL
        elif st == NULL:
            pass  # moving a definitely-null pointer is a no-op
        else:
            state[var] = MOVED

    # -- condition refinement --------------------------------------------------

    def _refine(self, span, state, branch_true, declared=None):
        """Narrows `state` along one branch of a null-check condition.
        Returns the refined state, or None when the branch is infeasible
        (e.g. the false branch of `if (p)` with p OWNED)."""
        if span is None:
            return state
        toks = self.toks
        idx = [i for i in self._span_indices(span[0], span[1])
               if toks[i].text not in ("(", ")")]
        if declared is not None:
            var = declared[0]
            return self._apply_nullcheck(state, var, branch_true)
        names = [toks[i].text for i in idx]
        if len(names) == 1 and names[0] in state:
            return self._apply_nullcheck(state, names[0], branch_true)
        if len(names) == 2 and names[0] == "!" and names[1] in state:
            return self._apply_nullcheck(state, names[1], not branch_true)
        if len(names) == 3 and names[1] in ("==", "!="):
            var = None
            if names[0] in state and names[2] == "nullptr":
                var = names[0]
            elif names[2] in state and names[0] == "nullptr":
                var = names[2]
            if var is not None:
                nonnull = branch_true if names[1] == "!=" else not branch_true
                return self._apply_nullcheck(state, var, nonnull)
        return state

    def _apply_nullcheck(self, state, var, nonnull):
        st = state.get(var)
        if nonnull:
            if st in (MOVED, NULL):
                return None  # infeasible: definitely empty, branch taken
            if st != ACCOUNTED:
                state[var] = OWNED
            return state
        if st in (OWNED, ACCOUNTED):
            return None  # infeasible: definitely live, branch refuted
        if st == MAYBE:
            state[var] = NULL
        return state


@dataclass
class _ExecCtx:
    breaks: list | None = None
    continues: list | None = None


def _dedup(states):
    seen = set()
    out = []
    for st in states:
        k = frozenset(st.items())
        if k not in seen:
            seen.add(k)
            out.append(st)
            if len(out) >= MAX_STATES:
                break
    return out


# ---------------------------------------------------------------------------
# Function-level driver
# ---------------------------------------------------------------------------

def _param_state(type_text, config):
    """Initial state for a parameter of the given type text, or None when
    the parameter is not an owning local (references, pointers)."""
    words = type_text.split()
    if not any(w in config.owning_types for w in words):
        return None
    if "&&" in words:
        return MAYBE  # caller may pass a moved-from or null handle
    if "&" in words or "*" in words:
        return None
    return OWNED


def _lambda_param_state(toks, body_lo, config):
    """Tracked by-value owning params of the lambda whose body starts at
    body_lo (token index just past '{')."""
    out = {}
    b = body_lo - 1  # at '{'
    k = b - 1
    # skip trailing specifiers / return type tokens back to ')'
    guard = 0
    while k >= 0 and toks[k].text != ")" and guard < 8:
        if toks[k].text == "]":
            return out  # no parameter list
        k -= 1
        guard += 1
    if k < 0 or toks[k].text != ")":
        return out
    depth = 0
    j = k
    while j >= 0:
        if toks[j].text == ")":
            depth += 1
        elif toks[j].text == "(":
            depth -= 1
            if depth == 0:
                break
        j -= 1
    if j < 0:
        return out
    groups = []
    group = []
    d = 0
    for t in toks[j + 1 : k]:
        if t.text in ("(", "<", "[", "{"):
            d += 1
        elif t.text in (")", ">", "]", "}"):
            d -= 1
        if t.text == "," and d == 0:
            groups.append(group)
            group = []
        else:
            group.append(t)
    if group:
        groups.append(group)
    for g in groups:
        ids = [t for t in g if t.kind == ID]
        if len(ids) < 2:
            continue
        type_text = " ".join(t.text for t in g[:-1])
        st = _param_state(type_text, config)
        if st is not None:
            out[ids[-1].text] = st
    return out


def _move_captures(captures, config):
    """Capture-init moves (`[p = std::move(x)]`): the closure owns them."""
    out = {}
    for i, t in enumerate(captures):
        if t.kind == ID and i + 1 < len(captures) \
                and captures[i + 1].text == "=":
            rest = [c.text for c in captures[i + 2 : i + 7]]
            if "move" in rest:
                out[t.text] = OWNED
    return out


def analyze_function(fn, config):
    """Analyzes one FunctionInfo plus its nested lambdas. Returns
    (events, analyzed) — analyzed False when the body failed to parse."""
    toks = fn.file.lexed.tokens
    events = []
    bare = fn.name.split("::")[-1]
    qual = f"{fn.scope.qual_class}::{bare}" if fn.scope.qual_class else bare
    entry = {}
    if bare not in config.sink_functions \
            and qual not in config.sink_functions:
        for name, type_text in fn.params.items():
            st = _param_state(type_text, config)
            if st is not None:
                entry[name] = st
    lam_spans = [lam.body for lam in fn.lambdas]
    a = OwnershipAnalysis(toks, fn.scope.body_start, fn.scope.body_end,
                          entry, config, skip_spans=lam_spans)
    events += a.run()
    analyzed = not a.failed
    for lam in fn.lambdas:
        lo, hi = lam.body
        entry = _lambda_param_state(toks, lo, config)
        entry.update(_move_captures(lam.captures, config))
        if not entry:
            continue
        inner = [s for s in lam_spans
                 if s != (lo, hi) and lo <= s[0] and s[1] <= hi]
        la = OwnershipAnalysis(toks, lo, hi, entry, config,
                               skip_spans=inner)
        events += la.run()
        analyzed = analyzed and not la.failed
    return events, analyzed
