"""Whole-program (call-graph) rules for fhmip_analyze.

Three rule families over the Program call graph (callgraph.py), each
configured by a section of tools/analyze/roots.toml:

  PERF-01  heap allocation (`new`, make_shared/make_unique/make_packet,
           growing std::vector/std::string/std::deque, std::function
           construction, std::map insertion) in any function reachable
           from the declared packet-forward roots. This is the triaged
           evidence list the arena/packet-pool overhaul starts from.
  CONC-01  mutable namespace-scope / function-local-static / class-static
           state read or written by functions reachable from the
           SweepRunner per-run closures, without atomic/mutex/
           thread_local protection — a static complement to TSan that
           also covers configs the tsan preset never executes.
  PROTO-01 a send/guard pairing rule: a function in src/fastho or
           src/mip that constructs one of the reliable request message
           types and hands it to a send-family call must itself arm a
           retransmission timer, or call a function that does (the
           MhAgent arm()/*_timeout() idiom); a timer elsewhere in the
           class guards some other send, not this one. Response/ack types
           are exempt because the requester's retransmission re-elicits
           them (the idempotent receivers).

Every finding carries its reachability path (root -> ... -> function),
rendered in text output and as a SARIF codeFlow. A root name in
roots.toml that matches no function is itself a finding, so root sets
cannot silently rot when code is renamed.
"""

from __future__ import annotations

from cpplex import ID
from registry import Finding, Rule

_GROW_METHODS = {
    "push_back", "emplace_back", "emplace", "emplace_front", "push_front",
    "insert", "insert_or_assign", "try_emplace", "resize", "reserve",
    "append", "assign", "push", "operator+=",
}
_DEFAULT_ALLOC_CALLS = ["make_shared", "make_unique", "make_packet",
                        "make_control", "clone", "to_string"]
_MAP_WORDS = ("map", "unordered_map", "multimap")
_LOCK_TOKENS = {"lock_guard", "unique_lock", "scoped_lock", "shared_lock"}


def _mk(ctx, rule, sev, path, line, msg, trace):
    return Finding(rule, sev, path, line, msg, ctx.fingerprint(path, line),
                   path_trace=list(trace))


def _root_findings(ctx, rule_id, program, rr):
    """A root that matches nothing is a config bug — report it loudly at
    the roots.toml file instead of silently shrinking coverage."""
    for r in rr.unmatched_roots:
        yield Finding(rule_id, "error", "tools/analyze/roots.toml", 1,
                      f"root '{r}' matches no function in the scanned "
                      f"sources — fix roots.toml after the rename",
                      ctx.fingerprint("tools/analyze/roots.toml", 1)
                      if (ctx.root / "tools/analyze/roots.toml").exists()
                      else "")


def _expanded(program, type_text):
    return program.expanded_type(type_text) if type_text else ""


def _audit_spans(toks, lo, hi):
    """Token spans of FHMIP_AUDIT*(...) argument groups. Audit detail
    strings are evaluated lazily (only on failure), so allocations inside
    them are not hot-path allocations."""
    spans = []
    i = lo
    while i < hi:
        t = toks[i]
        if t.kind == ID and t.text.startswith("FHMIP_AUDIT") \
                and i + 1 < hi and toks[i + 1].text == "(":
            depth = 0
            j = i + 1
            while j < hi:
                if toks[j].text == "(":
                    depth += 1
                elif toks[j].text == ")":
                    depth -= 1
                    if depth == 0:
                        break
                j += 1
            spans.append((i + 1, j))
            i = j
        i += 1
    return spans


def _container_word(program, type_text):
    exp = _expanded(program, type_text)
    flat = exp.replace("<", " ").replace(">", " ").replace("::", " ")
    for w in flat.split():
        if w in ("vector", "string", "basic_string", "deque", "list",
                 "map", "unordered_map", "multimap", "set", "unordered_set",
                 "ostringstream", "stringstream", "queue"):
            return w
    return ""


# -- PERF-01 -----------------------------------------------------------------

def check_perf01(ctx, program):
    cfg = program.config.get("PERF-01")
    if not cfg:
        return
    rr = program.reach(list(cfg.get("roots", [])))
    yield from _root_findings(ctx, "PERF-01", program, rr)
    prefixes = tuple(cfg.get("src_prefixes", ["src/"]))
    alloc_calls = set(cfg.get("alloc_calls", _DEFAULT_ALLOC_CALLS))
    fn_sinks = set(cfg.get("function_sinks", []))
    for idx in sorted(rr.parents):
        node = program.nodes[idx]
        if not node.path.startswith(prefixes):
            continue
        trace = rr.path(program, idx)
        fn = node.fn
        toks = fn.file.lexed.tokens
        lo, hi = fn.scope.body_start, fn.scope.body_end
        spans = _audit_spans(toks, lo, hi)

        def in_audit(ti):
            return any(a <= ti <= b for a, b in spans)

        emitted = set()

        def emit(line, what):
            k = (line, what)
            if k not in emitted:
                emitted.add(k)
                return _mk(ctx, "PERF-01", "warning", node.path, line,
                           f"{node.qual} {what} on the packet-forward path "
                           f"(root: {rr.root_name[idx]})", trace)
            return None

        for i in range(lo, hi):
            t = toks[i]
            if t.kind != ID or in_audit(i):
                continue
            prev = toks[i - 1] if i > 0 else None
            if t.text == "new" and (prev is None
                                    or prev.text not in ("operator", "=")):
                f = emit(t.line, "allocates with `new`")
                if f:
                    yield f
            # std::map subscript may insert a node.
            if i + 1 < hi and toks[i + 1].text == "[" \
                    and (prev is None or prev.text not in (".", "->", "::")):
                ty = _expanded(program, program._entity_type(node, t.text))
                if any(w in ty.split() or w + " <" in ty for w in _MAP_WORDS):
                    f = emit(t.line, f"subscripts map '{t.text}' "
                                     f"(operator[] inserts on miss)")
                    if f:
                        yield f
            # String append via +=.
            if i + 1 < hi and toks[i + 1].text == "+=":
                ty = _expanded(program, program._entity_type(node, t.text))
                if "string" in ty.replace("<", " ").replace("::", " ").split():
                    f = emit(t.line, f"appends to std::string '{t.text}' "
                                     f"via +=")
                    if f:
                        yield f
        for site in node.sites:
            if in_audit(site.tok_index):
                continue
            if site.name in alloc_calls:
                f = emit(site.line, f"calls {site.name}() (heap allocation)")
                if f:
                    yield f
            elif site.kind == "container" and site.name in _GROW_METHODS:
                cont = _container_word(program, site.recv_type) or "container"
                f = emit(site.line, f"grows std::{cont} '{site.recv_name}' "
                                    f"via {site.name}()")
                if f:
                    yield f
            elif site.has_lambda_arg and site.name in fn_sinks:
                f = emit(site.line, f"passes a lambda to {site.name}() "
                                    f"(std::function construction)")
                if f:
                    yield f


# -- CONC-01 -----------------------------------------------------------------

def check_conc01(ctx, program):
    cfg = program.config.get("CONC-01")
    if not cfg:
        return
    rr = program.reach(list(cfg.get("roots", [])))
    yield from _root_findings(ctx, "CONC-01", program, rr)
    by_name: dict[str, list] = {}
    for g in program.globals:
        if not g.is_protected():
            by_name.setdefault(g.name, []).append(g)
    if not by_name:
        return
    for idx in sorted(rr.parents):
        node = program.nodes[idx]
        fn = node.fn
        toks = fn.file.lexed.tokens
        lo, hi = fn.scope.body_start, fn.scope.body_end
        # Heuristic mutex recognition: a function that takes a lock is
        # treated as protected access.
        if any(toks[i].kind == ID and toks[i].text in _LOCK_TOKENS
               for i in range(lo, hi)):
            continue
        trace = rr.path(program, idx)
        seen = set()
        for i in range(lo, hi):
            t = toks[i]
            if t.kind != ID or t.text not in by_name:
                continue
            prev = toks[i - 1] if i > 0 else None
            if prev is not None and prev.text in (".", "->"):
                continue  # member access on some object, not the global
            for g in by_name[t.text]:
                if g.kind == "local-static" and g.owner != node.qual:
                    continue
                if g.kind == "class-static" and node.cls != g.owner \
                        and not (prev is not None and prev.text == "::"
                                 and i >= 2
                                 and toks[i - 2].text == g.owner):
                    continue
                k = (g.name, g.path, g.line)
                if k in seen:
                    continue
                seen.add(k)
                yield _mk(ctx, "CONC-01", "error", node.path, t.line,
                          f"{node.qual} touches mutable {g.kind} state "
                          f"'{g.name}' ({g.path}:{g.line}) without atomic/"
                          f"mutex protection, but is reachable from sweep "
                          f"root '{rr.root_name[idx]}' — per-run closures "
                          f"must be share-nothing", trace)


# -- PROTO-01 ----------------------------------------------------------------

def _fn_has_guard(node, guard_tokens):
    fn = node.fn
    toks = fn.file.lexed.tokens
    return any(toks[i].kind == ID and toks[i].text in guard_tokens
               for i in range(fn.scope.body_start, fn.scope.body_end))


def _class_has_guard(program, cls, guard_tokens):
    return any(_fn_has_guard(m, guard_tokens)
               for m in program.class_methods.get(cls, []))


def _send_is_guarded(program, node, guard_tokens):
    """The sending function arms a retransmission timer itself or calls a
    function that does."""
    return _fn_has_guard(node, guard_tokens) or any(
        _fn_has_guard(program.nodes[t], guard_tokens) for t in node.targets)


def check_proto01(ctx, program):
    cfg = program.config.get("PROTO-01")
    if not cfg:
        return
    dirs = tuple(d.rstrip("/") + "/" for d in cfg.get("dirs", []))
    send_calls = set(cfg.get("send_calls", ["send"]))
    guarded = set(cfg.get("guarded_messages", []))
    guard_tokens = set(cfg.get("guard_tokens", ["arm"]))
    if not dirs or not guarded:
        return
    for node in program.nodes:
        if not node.path.startswith(dirs):
            continue
        fn = node.fn
        toks = fn.file.lexed.tokens
        lo, hi = fn.scope.body_start, fn.scope.body_end
        # Construction evidence only: the type name must be followed by a
        # declarator or a braced temporary. A bare mention as a template
        # argument (std::get_if<Msg>, holds_alternative<Msg>) is how a
        # *responder* inspects an incoming message — responders are exempt
        # because the requester's retransmission re-elicits the reply.
        constructed: dict[str, int] = {}  # message -> first construction line
        for i in range(lo, hi):
            t = toks[i]
            if t.kind != ID or t.text not in guarded:
                continue
            nxt = toks[i + 1] if i + 1 < hi else None
            if nxt is not None and (nxt.kind == ID or nxt.text == "{"):
                constructed.setdefault(t.text, t.line)
        if not constructed:
            continue
        send_sites = [s for s in node.sites if s.name in send_calls]
        if not send_sites:
            continue
        if _send_is_guarded(program, node, guard_tokens):
            continue
        for m, made in sorted(constructed.items()):
            # Anchor at the first send after the message is built, so a
            # suppression sits next to the send it excuses.
            anchor = next((s.line for s in send_sites if s.line >= made),
                          send_sites[0].line)
            yield _mk(ctx, "PROTO-01", "error", node.path, anchor,
                      f"{node.qual} sends {m} but neither it nor a function "
                      f"it calls arms a retransmission timer "
                      f"({'/'.join(sorted(guard_tokens))}) — a lost "
                      f"message stalls the handover choreography",
                      [node.qual])


def register(registry):
    registry.add(Rule("PERF-01", "warning",
                      "heap allocation reachable from the packet-forward "
                      "roots (evidence list for the packet-pool overhaul)",
                      check_program=check_perf01))
    registry.add(Rule("CONC-01", "error",
                      "unsynchronized mutable static state reachable from "
                      "SweepRunner per-run closures",
                      check_program=check_conc01))
    registry.add(Rule("PROTO-01", "error",
                      "control-message send whose function arms no "
                      "retransmission timer, directly or in a callee",
                      check_program=check_proto01))
