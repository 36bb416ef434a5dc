"""Semantic rules for fhmip_analyze.

Five rules over the per-unit symbol model, each targeting a bug class
this repo has actually shipped (see ISSUE 4 / DESIGN.md):

  LIFE-01  this-capturing lambda registered as a control/port/forward
           handler or timer in a class whose destructor does not cancel
           the registration (PR 1's dangling-handler ASan class).
  DET-01   nondeterminism sources in src/: wall clocks, unseeded RNG,
           getenv, pointer values used as ordering/hash keys.
  DET-02   iteration over unordered_{map,set} inside a code path that
           prints, serializes, or accumulates order-sensitive results
           (breaks the sweep engine's byte-identical-stdout guarantee).
  AUD-01   classes that use FHMIP_AUDIT but expose public mutating
           methods that never audit (directly or via one delegated call).
  EXC-01   throw-capable expressions inside destructors or noexcept
           functions (std::terminate at runtime).
"""

from __future__ import annotations

from cpplex import ID
from registry import Finding, Rule

# -- shared helpers ----------------------------------------------------------

_MUTATOR_CALLS = {
    "push_back", "emplace_back", "emplace", "insert", "erase", "clear",
    "pop", "pop_back", "pop_front", "push", "push_front", "resize",
    "assign", "reset", "store", "swap",
}
_OUTPUT_CALLS = {
    "printf", "fprintf", "snprintf", "sprintf", "vprintf", "puts", "fputs",
    "fwrite", "add_row", "append", "print", "render", "write",
    "print_series_table", "print_series_csv",
    # Deterministic-export surfaces of the observability layer (src/obs):
    # these renderings are byte-compared by the golden-trace and sweep
    # --jobs determinism tests, so feeding them from hash-ordered
    # iteration is an output-order bug like any print.
    "to_json", "format_text", "format_timeline", "format_trace_line",
    "emit",
}
_ASSIGN_OPS = {"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^="}


def _in_src(path: str) -> bool:
    return path.split("/")[0] == "src"


def _fn_file(fn) -> str:
    return fn.file.lexed.path


def _mk(ctx, rule, sev, fn_or_path, line, msg):
    path = fn_or_path if isinstance(fn_or_path, str) else _fn_file(fn_or_path)
    return Finding(rule, sev, path, line, msg, ctx.fingerprint(path, line))


def _balanced_group(toks, open_idx, end):
    """Token span (open_idx+1, close_idx) of the paren or bracket group
    opening at open_idx, or None."""
    opener = toks[open_idx].text
    closer = ")" if opener == "(" else "]"
    depth = 0
    j = open_idx
    while j < end:
        if toks[j].text == opener:
            depth += 1
        elif toks[j].text == closer:
            depth -= 1
            if depth == 0:
                return (open_idx + 1, j)
        j += 1
    return None


def _lambda_in_span(fn, lo, hi):
    """Lambdas recorded for fn whose body starts within [lo, hi)."""
    return [l for l in fn.lambdas if lo <= l.body[0] < hi]


# -- LIFE-01 -----------------------------------------------------------------

# registration call -> token the destructor must reach (directly or via one
# call into another method of the same class).
_HANDLER_PAIRS = {
    "add_control_handler": "remove_control_handler",
    "register_port": "unregister_port",
}
_TIMER_CALLS = {"in", "at", "schedule_in", "schedule_at"}


def _dtor_reaches(cls, dtor, token_text) -> bool:
    """Transitive same-class closure: true when the destructor — directly
    or through any chain of this class's methods — reaches the cancelling
    token. (Was one-level delegation before the call-graph PR; transitive
    reach only removes false positives.)"""
    if dtor is None:
        return False
    by_name: dict[str, list] = {}
    for m in cls.methods:
        by_name.setdefault(m.name, []).append(m)
    seen: set[int] = set()
    stack = [dtor]
    while stack:
        m = stack.pop()
        if id(m) in seen:
            continue
        seen.add(id(m))
        names = {t.text for t in m.body_tokens() if t.kind == ID}
        if token_text in names:
            return True
        for nm in sorted(names & set(by_name)):
            stack.extend(by_name[nm])
    return False


def check_life01(ctx, unit):
    for cls in unit.classes.values():
        if not cls.methods:
            continue
        dtor = next((m for m in cls.methods if m.scope.is_dtor), None)
        for fn in cls.methods:
            if fn.scope.is_dtor:
                continue
            toks = fn.file.lexed.tokens
            lo, hi = fn.scope.body_start, fn.scope.body_end
            i = lo
            while i < hi:
                t = toks[i]
                if t.kind == ID and i + 1 < hi and toks[i + 1].text == "(":
                    name = t.text
                    required = None
                    kind = ""
                    if name in _HANDLER_PAIRS:
                        required = _HANDLER_PAIRS[name]
                        kind = "handler"
                    elif name in _TIMER_CALLS and i > 0 \
                            and toks[i - 1].text in (".", "->"):
                        required = "cancel"
                        kind = "timer"
                    if required is not None:
                        grp = _balanced_group(toks, i + 1, hi)
                        if grp is not None:
                            lams = _lambda_in_span(fn, grp[0], grp[1])
                            if any(l.captures_this() for l in lams):
                                if not _dtor_reaches(cls, dtor, required):
                                    what = ("no destructor"
                                            if dtor is None else
                                            f"destructor never calls "
                                            f"{required}")
                                    yield _mk(
                                        ctx, "LIFE-01", "error", fn, t.line,
                                        f"{cls.name}::{fn.name} registers a "
                                        f"this-capturing {kind} via {name}() "
                                        f"but {what} — the callback dangles "
                                        f"if the object dies first")
                                i = grp[1]
                i += 1


# -- DET-01 ------------------------------------------------------------------

_BANNED_IDS = {
    "random_device": "std::random_device is nondeterministically seeded",
    "system_clock": "wall clock breaks run-to-run determinism",
    "high_resolution_clock": "wall clock breaks run-to-run determinism",
    "steady_clock": "host clock breaks run-to-run determinism "
                    "(timing belongs on stderr/JSON only)",
    "getenv": "environment lookups make runs machine-dependent",
    "secure_getenv": "environment lookups make runs machine-dependent",
    "gettimeofday": "wall clock breaks run-to-run determinism",
    "clock_gettime": "wall clock breaks run-to-run determinism",
    "timespec_get": "wall clock breaks run-to-run determinism",
}
_BANNED_FREE_CALLS = {"time", "clock"}


def _first_template_arg(type_text: str, container: str) -> str:
    idx = type_text.find(container + " <")
    if idx == -1:
        idx = type_text.find(container + "<")
        if idx == -1:
            return ""
    lt = type_text.find("<", idx)
    depth = 0
    arg = []
    for ch_tok in type_text[lt:].split():
        if ch_tok == "<":
            depth += 1
            if depth == 1:
                continue
        elif ch_tok in (">", ">>"):
            depth -= 2 if ch_tok == ">>" else 1
            if depth <= 0:
                break
        elif ch_tok == "," and depth == 1:
            break
        arg.append(ch_tok)
    return " ".join(arg)


def _decl_sites(unit):
    """Yields (path, line, name, type_text, model) for every field and
    local declaration in the unit."""
    for m in unit.models:
        for cls in m.classes.values():
            for fname, ftype in cls.fields.items():
                yield (m.lexed.path, cls.field_lines.get(fname, 1), fname,
                       ftype, m)
        for fn in m.functions:
            for lname, ltype in fn.locals.items():
                yield (m.lexed.path, fn.line, lname, ltype, m)


def _iterated_names(unit) -> set[str]:
    names = set()
    for fn in unit.functions():
        for rf in fn.range_fors:
            base = _range_base(rf)
            if base:
                names.add(base)
    return names


def _program_iterated(ctx) -> set[str] | None:
    """Range-for'd names across the whole program (call-graph context):
    a pointer-keyed unordered container declared in one unit but iterated
    from another is just as nondeterministic."""
    prog = getattr(ctx, "program", None)
    if prog is None:
        return None
    cached = getattr(prog, "_iterated_names", None)
    if cached is None:
        cached = set()
        for node in prog.nodes:
            for rf in node.fn.range_fors:
                base = _range_base(rf)
                if base:
                    cached.add(base)
        prog._iterated_names = cached
    return cached


def _printing_helpers(ctx) -> frozenset:
    """Names of program functions that directly call an output surface —
    a depth-1 interprocedural sink set for DET-02: an unordered loop that
    calls such a helper writes output just as surely as one that calls
    printf itself."""
    prog = getattr(ctx, "program", None)
    if prog is None:
        return frozenset()
    cached = getattr(prog, "_printing_helpers", None)
    if cached is None:
        names = set()
        for node in prog.nodes:
            fn = node.fn
            toks = fn.file.lexed.tokens
            lo, hi = fn.scope.body_start, fn.scope.body_end
            for i in range(lo, hi):
                t = toks[i]
                if t.kind == ID and t.text in _OUTPUT_CALLS \
                        and i + 1 < hi and toks[i + 1].text == "(":
                    names.add(fn.name)
                    break
        cached = frozenset(names)
        prog._printing_helpers = cached
    return cached


def _range_base(rf) -> str:
    ids = [t for t in rf.expr if t.kind == ID and t.text != "this"]
    if not ids:
        return ""
    # `m_`, `this->m_`, `obj.m_` — a trailing call means we can't resolve.
    if any(t.text == "(" for t in rf.expr):
        return ""
    return ids[-1].text


def check_det01(ctx, unit):
    for m in unit.models:
        path = m.lexed.path
        if not _in_src(path):
            continue
        toks = m.lexed.tokens
        for i, t in enumerate(toks):
            if t.kind != ID:
                continue
            if t.text in _BANNED_IDS:
                yield _mk(ctx, "DET-01", "error", path, t.line,
                          f"{t.text}: {_BANNED_IDS[t.text]}")
            elif t.text in _BANNED_FREE_CALLS and i + 1 < len(toks) \
                    and toks[i + 1].text == "(":
                prev = toks[i - 1] if i > 0 else None
                if prev is not None and prev.text in (".", "->"):
                    continue  # member call like tx_time(...)
                if prev is not None and prev.text == "::" \
                        and i >= 2 and toks[i - 2].text != "std":
                    continue
                yield _mk(ctx, "DET-01", "error", path, t.line,
                          f"{t.text}(): wall clock breaks run-to-run "
                          f"determinism")
    # Pointer-keyed containers.
    prog_iterated = _program_iterated(ctx)
    iterated = prog_iterated if prog_iterated is not None \
        else _iterated_names(unit)
    for path, line, name, type_text, m in _decl_sites(unit):
        if not _in_src(path):
            continue
        for cont, needs_iter in (("map", False), ("set", False),
                                 ("unordered_map", True),
                                 ("unordered_set", True)):
            # exact container name (avoid matching unordered_map under
            # the plain "map" probe).
            words = type_text.split()
            if cont not in words:
                continue
            arg = _first_template_arg(type_text, cont)
            if "*" not in arg:
                continue
            if needs_iter and name not in iterated:
                continue
            what = ("iteration over a pointer-keyed unordered container"
                    if needs_iter else
                    "pointer-keyed ordered container: iteration order is "
                    "the address order")
            yield _mk(ctx, "DET-01", "error", path, line,
                      f"{name} uses an object address as its key — {what} "
                      f"varies across runs (ASLR)")
            break


# -- DET-02 ------------------------------------------------------------------

def _resolve_type(name, fn, unit):
    if name in fn.locals:
        return fn.locals[name]
    if name in fn.params:
        return fn.params[name]
    cls = None
    owner = getattr(fn, "owner", None)
    if owner is not None:
        cls = unit.classes.get(owner.name)
    if cls is not None and name in cls.fields:
        return cls.fields[name]
    return ""


def _fp_accumulation(toks, lo, hi, fn, unit):
    """Line of a `lhs += ...` inside [lo,hi) whose lhs base has a
    floating-point declared type, else None."""
    for i in range(lo, hi):
        if toks[i].text in ("+=", "-=", "*=", "/="):
            j = i - 1
            base = None
            while j >= lo:
                t = toks[j]
                if t.kind == ID:
                    base = t.text
                    j -= 1
                elif t.text in (".", "->", "]", "["):
                    j -= 1
                else:
                    break
            if base:
                ty = _resolve_type(base, fn, unit)
                if "double" in ty.split() or "float" in ty.split():
                    return toks[i].line
    return None


def _sorted_later(toks, seq_name, start, end) -> bool:
    """True if `sort`/`stable_sort` is called on `seq_name` in [start,end)
    — the collect-into-a-vector-then-sort snapshot idiom, which makes the
    hash-order collection loop harmless."""
    for i in range(start, end):
        t = toks[i]
        if t.kind == ID and t.text in ("sort", "stable_sort") \
                and i + 1 < end and toks[i + 1].text == "(":
            grp = _balanced_group(toks, i + 1, end)
            if grp is not None and any(
                    toks[j].kind == ID and toks[j].text == seq_name
                    for j in range(grp[0], grp[1])):
                return True
    return False


def check_det02(ctx, unit):
    for fn in unit.functions():
        toks = fn.file.lexed.tokens
        for rf in fn.range_fors:
            base = _range_base(rf)
            if not base:
                continue
            ty = _resolve_type(base, fn, unit)
            if "unordered_map" not in ty and "unordered_set" not in ty:
                continue
            lo, hi = rf.body
            sink = None
            for i in range(lo, hi):
                t = toks[i]
                if t.text == "<<":
                    sink = (t.line, "streams output")
                    break
                if t.kind == ID and i + 1 < hi and toks[i + 1].text == "(":
                    if t.text in _OUTPUT_CALLS:
                        sink = (t.line, f"prints via {t.text}()")
                        break
                    if t.text in ("push_back", "emplace_back"):
                        # Collecting into a sequence that is sorted before
                        # use is the sanctioned sorted-snapshot idiom.
                        seq = None
                        if i >= 2 and toks[i - 1].text in (".", "->") \
                                and toks[i - 2].kind == ID:
                            seq = toks[i - 2].text
                        if seq and _sorted_later(toks, seq, hi,
                                                 fn.scope.body_end):
                            continue
                        sink = (t.line, f"builds an ordered sequence via "
                                        f"{t.text}()")
                        break
                    if t.text in _printing_helpers(ctx) \
                            and t.text not in ("push_back", "emplace_back"):
                        sink = (t.line, f"calls {t.text}(), which writes "
                                        f"output (interprocedural sink)")
                        break
            if sink is None:
                line = _fp_accumulation(toks, lo, hi, fn, unit)
                if line is not None:
                    sink = (line, "accumulates floating-point values "
                                  "(non-associative, order-sensitive)")
            if sink is not None:
                yield _mk(ctx, "DET-02", "error", fn, rf.line,
                          f"{fn.name} iterates unordered container "
                          f"'{base}' and {sink[1]} — iteration order is "
                          f"hash-layout dependent; iterate a sorted "
                          f"snapshot instead")


# -- AUD-01 ------------------------------------------------------------------

def _has_audit(fn) -> bool:
    return any(t.kind == ID and t.text.startswith("FHMIP_AUDIT")
               for t in fn.body_tokens())


def _past_group(toks, open_idx, n) -> int:
    """Index just past the group opening at open_idx (n if unbalanced)."""
    grp = _balanced_group(toks, open_idx, n)
    return n if grp is None else grp[1] + 1


_ITER_LOOKUPS = {"find", "begin", "lower_bound", "upper_bound"}


def _iter_aliases(toks, fields) -> dict[int, str]:
    """Locals declared as iterators into a field (`auto it = hosts_.find(k);`,
    `Map::iterator it = m_.begin();`), keyed by the token index of their
    declarator: writes through `it->...` are writes to the field. A
    `const_iterator` cannot write; a `const` iterator object still can."""
    aliases = {}
    for i in range(1, len(toks) - 5):
        prev = toks[i - 1]
        declarator = (prev.kind == ID and prev.text != "const_iterator") \
            or prev.text in (">", ">>")
        if not declarator or toks[i].kind != ID or toks[i + 1].text != "=" \
                or toks[i + 2].text not in fields \
                or toks[i + 3].text != "." \
                or toks[i + 4].text not in _ITER_LOOKUPS \
                or toks[i + 5].text != "(":
            continue  # not `T it = field.find(...)`
        aliases[i] = toks[i].text
    return aliases


def _ref_aliases(toks, fields) -> dict[int, str]:
    """Locals declared as non-const references bound into a field
    (`Host& h = hosts_[mh];`, `auto& q = queue_;`), keyed by the token index
    of their declarator: writes through them are writes to the field.
    `fields` may also hold iterator aliases, so `Host& h = it->second;`
    binds into the field `it` points into."""
    aliases = {}
    for i in range(1, len(toks) - 3):
        declarator = toks[i - 1].kind == ID or toks[i - 1].text in (">", ">>")
        if not declarator or toks[i].text != "&" or toks[i + 1].kind != ID \
                or toks[i + 2].text != "=" or toks[i + 3].text not in fields:
            continue  # not `T& name = field...`
        j = i - 1
        while j >= 0 and toks[j].text not in (";", "{", "}", "(", ")", ",",
                                              "const"):
            j -= 1
        if j < 0 or toks[j].text != "const":  # const references cannot write
            aliases[i + 1] = toks[i + 1].text
    return aliases


def _writes_through(toks, i, n) -> bool:
    """True when the name at toks[i] heads a write: an assignment or ++/--
    on it or on a member/element reached from it, or a mutator call on one
    of them."""
    if i > 0 and toks[i - 1].text in ("++", "--"):
        return True
    j = i + 1
    while j + 1 < n:
        if toks[j].text in (".", "->") and toks[j + 1].kind == ID:
            if toks[j + 1].text in _MUTATOR_CALLS and j + 2 < n \
                    and toks[j + 2].text == "(":
                return True
            j += 2
        elif toks[j].text == "[":
            j = _past_group(toks, j, n)
        else:
            break
    return j < n and toks[j].text in _ASSIGN_OPS | {"++", "--"}


def _mutates_fields(fn, fields) -> bool:
    toks = fn.body_tokens()
    n = len(toks)
    iters = _iter_aliases(toks, fields)
    iter_names = set(iters.values())
    decls = _ref_aliases(toks, set(fields) | iter_names)
    decls.update(iters)
    names = set(fields) | set(decls.values())
    for i, t in enumerate(toks):
        if t.kind != ID or t.text not in names or i in decls:
            continue
        if i > 0 and toks[i - 1].text in (".", "->", "::"):
            continue  # someone else's member
        if t.text in iter_names and (i + 1 >= n or toks[i + 1].text != "->"):
            continue  # `++it`, `it = ...` move the iterator, not the field
        if _writes_through(toks, i, n):
            return True
    return False


def _method_access(fn, cls) -> str:
    if fn.scope.access:
        return fn.scope.access
    decl = next((d for d in cls.decls if d.name == fn.name), None)
    if decl is not None:
        return decl.access
    if cls.scope is not None:
        return cls.scope.default_access
    return "private"


def check_aud01(ctx, unit):
    for cls in unit.classes.values():
        if not cls.methods:
            continue
        audited = [m for m in cls.methods if _has_audit(m)]
        if not audited:
            continue
        # Transitive delegation closure within the class: a method counts
        # as auditing when any chain of calls on `this` from it reaches an
        # FHMIP_AUDIT. A same-named call on another object (`q.drain()`)
        # does not delegate.
        audit_names = {m.name for m in audited}
        changed = True
        while changed:
            changed = False
            for m in cls.methods:
                if m.name in audit_names:
                    continue
                if m.self_calls & audit_names:
                    audit_names.add(m.name)
                    changed = True
        for fn in cls.methods:
            if not _in_src(_fn_file(fn)):
                continue
            if fn.scope.is_ctor or fn.scope.is_dtor or fn.scope.is_const \
                    or fn.scope.is_static:
                continue
            if _method_access(fn, cls) != "public":
                continue
            if _has_audit(fn):
                continue
            # Delegation: calling an auditing method on this object counts.
            if fn.self_calls & audit_names:
                continue
            if not _mutates_fields(fn, cls.fields):
                continue
            yield _mk(ctx, "AUD-01", "warning", fn, fn.line,
                      f"{cls.name}::{fn.name} mutates audited state but "
                      f"neither audits nor delegates to an auditing "
                      f"method — add FHMIP_AUDIT or baseline with a "
                      f"justification")


# -- EXC-01 ------------------------------------------------------------------

def _throws_directly(prog, fn) -> bool:
    cache = getattr(prog, "_throws_cache", None)
    if cache is None:
        cache = {}
        prog._throws_cache = cache
    k = id(fn)
    if k not in cache:
        toks = fn.file.lexed.tokens
        hit = False
        for i in range(fn.scope.body_start, fn.scope.body_end):
            t = toks[i]
            if t.kind == ID and t.text in ("throw", "rethrow_exception") \
                    and not any(lo <= i < hi for lo, hi in fn.try_spans):
                hit = True
                break
        cache[k] = hit
    return cache[k]


def check_exc01(ctx, unit):
    prog = getattr(ctx, "program", None)
    for fn in unit.functions():
        sc = fn.scope
        if not (sc.is_dtor or sc.is_noexcept):
            continue
        if sc.is_dtor and getattr(sc, "is_noexcept_false", False):
            continue
        where = "destructor" if sc.is_dtor else "noexcept function"
        toks = fn.file.lexed.tokens
        for i in range(sc.body_start, sc.body_end):
            t = toks[i]
            if t.kind == ID and t.text in ("throw", "rethrow_exception"):
                if any(lo <= i < hi for lo, hi in fn.try_spans):
                    continue
                yield _mk(ctx, "EXC-01", "error", fn, t.line,
                          f"{t.text} inside {where} {fn.name} — escapes "
                          f"call std::terminate")
        # Call-graph context (depth 1): a call, outside any try, into a
        # project function whose body throws at top level.
        node = prog.node_for(fn) if prog is not None else None
        if node is None:
            continue
        reported = set()
        for site in node.sites:
            if any(lo <= site.tok_index < hi for lo, hi in fn.try_spans):
                continue
            for tgt in prog.resolve_site(node, site):
                if tgt.fn is fn or tgt.fn.scope.is_noexcept:
                    continue
                if _throws_directly(prog, tgt.fn) \
                        and (site.line, tgt.qual) not in reported:
                    reported.add((site.line, tgt.qual))
                    yield _mk(ctx, "EXC-01", "error", fn, site.line,
                              f"{where} {fn.name} calls {tgt.qual}(), "
                              f"which throws outside any try — escapes "
                              f"call std::terminate")


def register(registry):
    registry.add(Rule("LIFE-01", "error",
                      "this-capturing handler/timer registered without a "
                      "matching cancel in the destructor",
                      check_unit=check_life01))
    registry.add(Rule("DET-01", "error",
                      "nondeterminism source in src/ (wall clock, env, "
                      "address-as-key)",
                      check_unit=check_det01))
    registry.add(Rule("DET-02", "error",
                      "ordering-sensitive output/accumulation over an "
                      "unordered container",
                      check_unit=check_det02))
    registry.add(Rule("AUD-01", "warning",
                      "public mutating method of an audited class without "
                      "an audit call",
                      check_unit=check_aud01))
    registry.add(Rule("EXC-01", "error",
                      "throw-capable expression in destructor/noexcept "
                      "function",
                      check_unit=check_exc01))
