"""Structural C++ model for the fhmip semantic analyzer.

Builds, from the token stream of one file, a scope tree (namespaces,
classes, enums, functions, lambdas, blocks) via brace tracking, then a
per-file symbol model:

  * classes: fields (name -> type text), declared methods (access/const/
    static), in-class defined methods;
  * functions: qualified owner class, ctor/dtor flags, noexcept, const,
    parameter and local declarations, range-for loops, lambdas with
    capture lists, call sites, try-block spans.

Two files that form a translation unit (foo.hpp + foo.cpp) can be merged
into one `Unit`, so rules see a class declared in the header together
with its out-of-line method definitions in the .cpp. The model is
heuristic — it does not resolve templates or overloads — but it is a real
lexer + scope tracker, which is enough to mechanize the handler-lifetime,
determinism and audit-coverage rules without the false-positive swamp a
line-regex pass produces.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from cpplex import ID, PUNCT, LexedFile, Tok

_ACCESS = ("public", "private", "protected")
_DECL_MODIFIERS = {
    "explicit", "virtual", "static", "inline", "constexpr", "friend",
    "mutable", "typename", "extern",
}
_CONTROL = {"if", "else", "for", "while", "switch", "do", "try", "catch"}
_TYPE_EXTRAS = {"const", "unsigned", "signed", "long", "short", "struct",
                "class", "typename", "volatile"}
_NOT_DECL_START = _CONTROL | {
    "return", "break", "continue", "case", "default", "goto", "throw",
    "using", "typedef", "delete", "new", "operator", "template", "public",
    "private", "protected", "sizeof", "static_assert",
}


@dataclass
class Scope:
    kind: str  # namespace | class | enum | function | lambda | block | init
    name: str = ""
    parent: "Scope | None" = None
    body_start: int = 0  # token index just past '{'
    body_end: int = 0  # token index of '}'
    head_start: int = 0  # first token of the introducing statement
    children: list["Scope"] = field(default_factory=list)
    # function-only:
    qual_class: str = ""
    is_ctor: bool = False
    is_dtor: bool = False
    is_const: bool = False
    is_static: bool = False
    is_noexcept: bool = False  # noexcept or noexcept(true)
    is_noexcept_false: bool = False  # explicitly noexcept(false)
    access: str = ""  # for in-class definitions / declarations
    # class-only:
    default_access: str = "private"


@dataclass
class MethodDecl:
    """A method declared (not defined) inside a class body."""

    name: str
    access: str
    is_const: bool
    is_static: bool
    line: int
    is_virtual: bool = False  # virtual / override / final / = 0


@dataclass
class ClassInfo:
    name: str
    scope: Scope | None  # None for "external" classes seen only via X::f
    fields: dict[str, str] = field(default_factory=dict)  # name -> type text
    field_lines: dict[str, int] = field(default_factory=dict)
    decls: list[MethodDecl] = field(default_factory=list)
    methods: list["FunctionInfo"] = field(default_factory=list)


@dataclass
class RangeFor:
    expr: list[Tok]  # tokens of the range expression
    body: tuple[int, int]  # token span of the loop body
    line: int


@dataclass
class LambdaInfo:
    captures: list[Tok]
    body: tuple[int, int]
    line: int

    def captures_this(self) -> bool:
        """True when the capture list captures `this` — explicitly, or
        implicitly via a default capture (`[&]` / `[=]`)."""
        for idx, t in enumerate(self.captures):
            if t.text == "this":
                return True
            if t.text in ("&", "="):
                nxt = self.captures[idx + 1] if idx + 1 < len(self.captures) \
                    else None
                if nxt is None or nxt.text == ",":
                    return True
        return False


def _calls_on_this(toks, i) -> bool:
    """True when the call named at toks[i] has no receiver or `this->`."""
    before = toks[i - 1].text
    if before == "->":
        return toks[i - 2].text == "this"
    return before not in (".", "::")


@dataclass
class FunctionInfo:
    name: str
    scope: Scope
    file: "FileModel"
    params: dict[str, str] = field(default_factory=dict)
    locals: dict[str, str] = field(default_factory=dict)
    range_fors: list[RangeFor] = field(default_factory=list)
    lambdas: list[LambdaInfo] = field(default_factory=list)
    # Names called on this object: unqualified (`f()`) or `this->f()`,
    # never `x.f()`, `p->f()` or `N::f()`.
    self_calls: set[str] = field(default_factory=set)
    try_spans: list[tuple[int, int]] = field(default_factory=list)
    n_params: int = 0  # declared parameter-group count (incl. unnamed)
    n_defaults: int = 0  # how many of those carry a default argument

    @property
    def line(self) -> int:
        toks = self.file.lexed.tokens
        i = min(self.scope.head_start, len(toks) - 1)
        return toks[i].line if toks else 1

    def body_tokens(self) -> list[Tok]:
        return self.file.lexed.tokens[self.scope.body_start : self.scope.body_end]


class FileModel:
    """Scope tree + symbols for one lexed file."""

    def __init__(self, lexed: LexedFile):
        self.lexed = lexed
        self.root = Scope("block", name="<file>")
        self.classes: dict[str, ClassInfo] = {}
        self.functions: list[FunctionInfo] = []
        self._build_scopes()
        self._build_symbols()

    # -- structural pass -----------------------------------------------------

    def _build_scopes(self):
        toks = self.lexed.tokens
        cur = self.root
        stmt_start = 0
        i = 0
        n = len(toks)
        while i < n:
            t = toks[i]
            if t.kind == PUNCT and t.text == "{":
                head = toks[stmt_start:i]
                sc = self._classify(head, cur)
                sc.parent = cur
                sc.head_start = stmt_start
                sc.body_start = i + 1
                cur.children.append(sc)
                cur = sc
                stmt_start = i + 1
            elif t.kind == PUNCT and t.text == "}":
                cur.body_end = i
                if cur.parent is not None:
                    cur = cur.parent
                stmt_start = i + 1
            elif t.kind == PUNCT and t.text == ";":
                stmt_start = i + 1
            elif t.kind == ID and t.text in _ACCESS and i + 1 < n \
                    and toks[i + 1].text == ":" and cur.kind == "class":
                stmt_start = i + 2
                i += 1
            i += 1
        self.root.body_end = n

    def _classify(self, head: list[Tok], parent: Scope) -> Scope:
        head = self._strip_head(head)
        if head and head[0].text == "namespace":
            name = head[1].text if len(head) > 1 and head[1].kind == ID else ""
            return Scope("namespace", name=name)
        if head and head[0].text == "enum":
            return Scope("enum")
        if head and head[0].text in ("class", "struct", "union"):
            # A '(' at top level would mean a function returning a struct;
            # class heads have none before the brace (bases use ':').
            name = ""
            rest = head[1:]
            for k, t in enumerate(rest):
                if t.kind == ID and t.text not in ("final", "alignas"):
                    # A qualified head (`struct std::hash<T>`) names its
                    # last component, never the namespace.
                    while k + 2 < len(rest) and rest[k + 1].text == "::" \
                            and rest[k + 2].kind == ID:
                        k += 2
                    name = rest[k].text
                    break
                if t.text in (":", "{"):
                    break
            sc = Scope("class", name=name)
            sc.default_access = "public" if head[0].text in ("struct", "union") \
                else "private"
            return sc
        lam = self._match_lambda(head)
        if lam is not None:
            return lam
        fn = self._match_function(head)
        if fn is not None:
            return fn
        if head and head[0].text in _CONTROL:
            return Scope("block", name=head[0].text)
        if head:
            last = head[-1]
            if last.kind == PUNCT and last.text in ("=", "(", ",", "<", ">"):
                return Scope("init")
            if last.text == "return":
                return Scope("init")
        else:
            # '{' directly after ';' / '}' / start: plain block or braced
            # initializer at class scope; treat as block.
            return Scope("block")
        return Scope("block")

    @staticmethod
    def _strip_head(head: list[Tok]) -> list[Tok]:
        """Removes leading template<...> groups, attributes and access
        labels so classification sees the interesting keyword first."""
        i = 0
        n = len(head)
        while i < n:
            t = head[i]
            if t.text == "template" and i + 1 < n and head[i + 1].text == "<":
                depth = 0
                j = i + 1
                while j < n:
                    if head[j].text == "<":
                        depth += 1
                    elif head[j].text == ">":
                        depth -= 1
                        if depth == 0:
                            break
                    elif head[j].text == ">>":
                        depth -= 2
                        if depth <= 0:
                            break
                    j += 1
                i = j + 1
            elif t.text in _ACCESS and i + 1 < n and head[i + 1].text == ":":
                i += 2
            elif t.text == "[" and i + 1 < n and head[i + 1].text == "[":
                depth = 0
                j = i
                while j < n:
                    if head[j].text == "[":
                        depth += 1
                    elif head[j].text == "]":
                        depth -= 1
                        if depth == 0:
                            break
                    j += 1
                i = j + 1
            elif t.text in ("inline", "explicit", "virtual", "constexpr",
                            "friend"):
                i += 1
            else:
                break
        return head[i:]

    @staticmethod
    def _match_lambda(head: list[Tok]) -> Scope | None:
        """Recognizes `... [caps] (params) specs {` or `... [caps] {`."""
        k = len(head) - 1
        # Strip trailing specifiers and -> return type.
        k = FileModel._strip_trailing_specifiers(head, k)
        if k < 0:
            return None
        if head[k].text == ")":
            depth = 0
            j = k
            while j >= 0:
                if head[j].text == ")":
                    depth += 1
                elif head[j].text == "(":
                    depth -= 1
                    if depth == 0:
                        break
                j -= 1
            if j <= 0:
                return None
            k = j - 1
            k = FileModel._strip_trailing_specifiers(head, k)
        if k < 0 or head[k].text != "]":
            return None
        depth = 0
        j = k
        while j >= 0:
            if head[j].text == "]":
                depth += 1
            elif head[j].text == "[":
                depth -= 1
                if depth == 0:
                    break
            j -= 1
        if j < 0:
            return None
        # Exclude array subscript / array declarator: `a[` / `](` after id.
        prev = head[j - 1] if j > 0 else None
        if prev is not None and (prev.kind == ID or prev.text in (")", "]")):
            return None
        sc = Scope("lambda")
        sc.is_noexcept = any(t.text == "noexcept" for t in head[k:])
        # Stash capture tokens via name field? keep them on the scope:
        sc.name = "<lambda>"
        sc.captures = head[j + 1 : k]  # type: ignore[attr-defined]
        return sc

    @staticmethod
    def _strip_trailing_specifiers(head: list[Tok], k: int) -> int:
        changed = True
        while changed and k >= 0:
            changed = False
            t = head[k]
            if t.kind == ID and t.text in ("mutable", "const", "noexcept",
                                           "override", "final"):
                k -= 1
                changed = True
            elif t.text in ("&", "&&"):
                k -= 1
                changed = True
            elif t.text == ")" :
                # possibly noexcept(...) — strip the group only if it is
                # preceded (transitively) by `noexcept`.
                depth = 0
                j = k
                while j >= 0:
                    if head[j].text == ")":
                        depth += 1
                    elif head[j].text == "(":
                        depth -= 1
                        if depth == 0:
                            break
                    j -= 1
                if j > 0 and head[j - 1].text == "noexcept":
                    k = j - 2
                    changed = True
            elif t.kind in (ID, PUNCT) and "->" in [h.text for h in head[max(0, k - 6) : k + 1]]:
                # trailing return type: cut at the '->'
                for j in range(k, max(-1, k - 12), -1):
                    if head[j].text == "->":
                        k = j - 1
                        changed = True
                        break
                else:
                    break
        return k

    @staticmethod
    def _match_function(head: list[Tok]) -> Scope | None:
        """Recognizes function definitions: `type name(params) specs {`,
        `Cls::name(params) ... {`, ctor-init lists, `~Cls()` dtors."""
        if not head:
            return None
        # Cut a ctor-initializer list: the last top-level ':' that follows
        # a ')' (and is not '::' — those are single tokens here).
        depth = 0
        cut = -1
        seen_close = False
        for idx, t in enumerate(head):
            if t.text in ("(", "[", "{"):
                depth += 1
            elif t.text in (")", "]", "}"):
                depth -= 1
                if t.text == ")":
                    seen_close = True
            elif t.text == ":" and depth == 0 and seen_close:
                cut = idx
                break
            elif t.text == "?" and depth == 0:
                return None  # ternary expression statement
        if cut != -1:
            head = head[:cut]
        k = len(head) - 1
        noexc = any(t.text == "noexcept" for t in head)
        noexc_false = False
        for idx, t in enumerate(head):
            if t.text == "noexcept" and idx + 2 < len(head) \
                    and head[idx + 1].text == "(" and head[idx + 2].text == "false":
                noexc_false = True
        is_const = False
        # Strip trailing specifiers (const, noexcept, override, -> type).
        while k >= 0:
            t = head[k]
            if t.kind == ID and t.text in ("const", "noexcept", "override",
                                           "final", "mutable"):
                if t.text == "const":
                    is_const = True
                k -= 1
            elif t.text in ("&", "&&"):
                k -= 1
            elif t.text == ")":
                depth2 = 0
                j = k
                while j >= 0:
                    if head[j].text == ")":
                        depth2 += 1
                    elif head[j].text == "(":
                        depth2 -= 1
                        if depth2 == 0:
                            break
                    j -= 1
                if j > 0 and head[j - 1].text == "noexcept":
                    k = j - 2
                else:
                    break
            else:
                # trailing return type `-> T`
                found = False
                for j in range(k, -1, -1):
                    if head[j].text == "->":
                        k = j - 1
                        found = True
                        break
                    if head[j].text == ")":
                        break
                if not found:
                    break
        if k < 0 or head[k].text != ")":
            return None
        depth = 0
        j = k
        while j >= 0:
            if head[j].text == ")":
                depth += 1
            elif head[j].text == "(":
                depth -= 1
                if depth == 0:
                    break
            j -= 1
        if j <= 0:
            return None
        name_tok = head[j - 1]
        if name_tok.kind != ID or name_tok.text in _CONTROL \
                or name_tok.text in ("return", "new", "delete", "sizeof",
                                     "defined", "alignof", "decltype"):
            return None
        sc = Scope("function", name=name_tok.text)
        sc.is_noexcept = noexc and not noexc_false
        sc.is_noexcept_false = noexc_false
        sc.is_const = is_const
        sc.param_span = (j + 1, k)  # type: ignore[attr-defined]
        sc.head_tokens = head  # type: ignore[attr-defined]
        p = j - 2
        if p >= 0 and head[p].text == "~":
            sc.is_dtor = True
            p -= 1
        if p >= 1 and head[p].text == "::" and head[p - 1].kind == ID:
            sc.qual_class = head[p - 1].text
            if sc.is_dtor or sc.qual_class == sc.name:
                sc.is_ctor = not sc.is_dtor
        # In-class ctor/dtor: `Node(...)` / `~Node()` with no return type.
        if not sc.qual_class:
            has_type = any(t.kind == ID and t.text not in _DECL_MODIFIERS
                           for t in head[:max(0, p + 1)])
            if not has_type:
                if sc.is_dtor:
                    pass
                else:
                    sc.is_ctor = True  # confirmed against class name later
        sc.is_static = any(t.text == "static" for t in head[: j])
        return sc

    # -- symbol pass ---------------------------------------------------------

    def _build_symbols(self):
        self._walk(self.root, enclosing_class=None, access="")

    def _walk(self, scope: Scope, enclosing_class: ClassInfo | None,
              access: str):
        for child in scope.children:
            if child.kind == "namespace" or (child.kind == "block"
                                             and scope is self.root):
                self._walk(child, enclosing_class, access)
            elif child.kind == "class":
                ci = self.classes.setdefault(child.name or "<anon>",
                                             ClassInfo(child.name, child))
                if ci.scope is None:
                    ci.scope = child
                self._scan_class_body(child, ci)
                self._walk(child, ci, child.default_access)
            elif child.kind == "function":
                fn = self._analyze_function(child)
                self.functions.append(fn)
                owner = None
                if child.qual_class:
                    owner = self.classes.setdefault(
                        child.qual_class, ClassInfo(child.qual_class, None))
                elif enclosing_class is not None:
                    owner = enclosing_class
                    if child.name == enclosing_class.name:
                        child.is_ctor = True
                    elif child.is_dtor is False and child.name.startswith("~"):
                        child.is_dtor = True
                if owner is not None:
                    owner.methods.append(fn)
                    fn.owner = owner  # type: ignore[attr-defined]
            else:
                self._walk(child, enclosing_class, access)

    def _scan_class_body(self, cls: Scope, ci: ClassInfo):
        """Scans tokens at class depth (outside child scopes) for field and
        method declarations, tracking access labels."""
        toks = self.lexed.tokens
        spans = sorted((c.head_start, c.body_end) for c in cls.children)
        access = cls.default_access
        i = cls.body_start
        stmt: list[Tok] = []
        span_idx = 0
        while i < cls.body_end:
            # Skip child scopes (their heads are part of the child, but the
            # head tokens before '{' still belong to the statement; we only
            # skip the brace bodies).
            while span_idx < len(spans) and spans[span_idx][1] < i:
                span_idx += 1
            t = toks[i]
            if t.kind == ID and t.text in _ACCESS and i + 1 < cls.body_end \
                    and toks[i + 1].text == ":":
                access = t.text
                # also mark in-class defined methods that follow
                stmt = []
                i += 2
                continue
            if t.text == "{":
                # find matching close, skip the body
                depth = 1
                j = i + 1
                while j < cls.body_end and depth:
                    if toks[j].text == "{":
                        depth += 1
                    elif toks[j].text == "}":
                        depth -= 1
                    j += 1
                # was this a method definition? record access (and whether
                # the head marks it virtual/override) on the scope
                for c in cls.children:
                    if c.body_start == i + 1 and c.kind == "function":
                        c.access = access
                        head = toks[c.head_start : c.body_start - 1]
                        c.is_virtual = any(  # type: ignore[attr-defined]
                            t.text in ("virtual", "override", "final")
                            for t in head)
                i = j
                stmt = []
                continue
            if t.text == ";":
                self._record_class_stmt(stmt, access, ci)
                stmt = []
                i += 1
                continue
            stmt.append(t)
            i += 1

    def _record_class_stmt(self, stmt: list[Tok], access: str, ci: ClassInfo):
        if not stmt:
            return
        first = stmt[0].text
        if first in ("using", "typedef", "friend", "template", "enum",
                     "class", "struct", "static_assert", "public", "private",
                     "protected", "operator"):
            return
        if any(t.text == "operator" for t in stmt):
            return
        # Method declaration: top-level '(' (outside template angles).
        angle = paren = 0
        is_method = False
        name = ""
        is_const = is_static = False
        prev: Tok | None = None
        for idx, t in enumerate(stmt):
            if t.text == "<" and prev is not None and (prev.kind == ID
                                                       or prev.text == ">"):
                angle += 1
            elif t.text in (">", ">>") and angle > 0:
                angle -= 2 if t.text == ">>" else 1
                angle = max(angle, 0)
            elif t.text == "(" and angle == 0:
                paren += 1
                if paren == 1 and not is_method and prev is not None \
                        and prev.kind == ID:
                    is_method = True
                    name = prev.text
            elif t.text == ")" and angle == 0 and paren > 0:
                paren -= 1
                if paren == 0 and idx + 1 < len(stmt) \
                        and stmt[idx + 1].text == "const":
                    is_const = True
            prev = t
        if stmt[0].text == "static":
            is_static = True
        if is_method and name:
            is_virtual = any(t.text in ("virtual", "override", "final")
                             for t in stmt)
            ci.decls.append(MethodDecl(name, access, is_const, is_static,
                                       stmt[0].line, is_virtual))
            return
        # Field declaration: type tokens then name, optionally `= init`.
        decl = _parse_decl(stmt)
        if decl is not None:
            tname, ttype, line = decl
            ci.fields[tname] = ttype
            ci.field_lines[tname] = line

    def _analyze_function(self, scope: Scope) -> FunctionInfo:
        fn = FunctionInfo(scope.name, scope, self)
        toks = self.lexed.tokens
        # Parameters.
        span = getattr(scope, "param_span", None)
        head = getattr(scope, "head_tokens", None)
        if span and head is not None:
            self._parse_params(head, fn)
        # Body scan.
        i = scope.body_start
        end = scope.body_end
        stmt: list[Tok] = []
        prev: Tok | None = None
        while i < end:
            t = toks[i]
            if t.kind == ID and t.text == "for" and i + 1 < end \
                    and toks[i + 1].text == "(":
                i = self._scan_for(i, end, fn)
                stmt = []
                prev = t
                continue
            if t.kind == ID and t.text == "try":
                j = i + 1
                while j < end and toks[j].text != "{":
                    j += 1
                if j < end:
                    depth = 1
                    k = j + 1
                    while k < end and depth:
                        if toks[k].text == "{":
                            depth += 1
                        elif toks[k].text == "}":
                            depth -= 1
                        k += 1
                    fn.try_spans.append((j + 1, k - 1))
            if t.text == "[" and (prev is None or not (prev.kind == ID or
                                                       prev.text in (")", "]"))):
                j = i + 1
                depth = 1
                while j < end and depth:
                    if toks[j].text == "[":
                        depth += 1
                    elif toks[j].text == "]":
                        depth -= 1
                    j += 1
                caps = toks[i + 1 : j - 1]
                # find the lambda body '{' (skip params/specifiers)
                k = j
                pd = 0
                while k < end:
                    if toks[k].text == "(":
                        pd += 1
                    elif toks[k].text == ")":
                        pd -= 1
                    elif toks[k].text == "{" and pd == 0:
                        break
                    elif toks[k].text in (";", ",") and pd == 0:
                        k = -1
                        break
                    k += 1
                if k != -1 and k < end:
                    depth = 1
                    m = k + 1
                    while m < end and depth:
                        if toks[m].text == "{":
                            depth += 1
                        elif toks[m].text == "}":
                            depth -= 1
                        m += 1
                    fn.lambdas.append(
                        LambdaInfo(list(caps), (k + 1, m - 1), toks[i].line))
            if t.kind == ID and i + 1 < end and toks[i + 1].text == "(" \
                    and _calls_on_this(toks, i):
                fn.self_calls.add(t.text)
            if t.text in (";", "{", "}"):
                if stmt:
                    d = _parse_decl(stmt)
                    if d is not None:
                        fn.locals[d[0]] = d[1]
                stmt = []
            else:
                stmt.append(t)
            prev = t
            i += 1
        return fn

    def _parse_params(self, head: list[Tok], fn: FunctionInfo):
        span = getattr(fn.scope, "param_span", None)
        if span is None:
            return
        lo, hi = span
        depth = 0
        group: list[Tok] = []
        groups: list[list[Tok]] = []
        for t in head[lo:hi]:
            if t.text in ("(", "<", "[", "{"):
                depth += 1
            elif t.text in (")", ">", "]", "}"):
                depth -= 1
            if t.text == "," and depth == 0:
                groups.append(group)
                group = []
            else:
                group.append(t)
        if group:
            groups.append(group)
        groups = [g for g in groups if any(t.text != "void" for t in g)]
        fn.n_params = len(groups)
        for g in groups:
            # name = last id before a default '='
            eq = next((idx for idx, t in enumerate(g) if t.text == "="), len(g))
            if eq < len(g):
                fn.n_defaults += 1
            ids = [t for t in g[:eq] if t.kind == ID]
            if len(ids) >= 2:
                fn.params[ids[-1].text] = " ".join(t.text for t in g[:eq][:-1])

    def _scan_for(self, i: int, end: int, fn: FunctionInfo) -> int:
        """Parses a `for` statement at token index i; records range-fors and
        `.begin()`-style iterator loops; returns index to resume at (start
        of the loop body, which the main scan continues through)."""
        toks = self.lexed.tokens
        j = i + 1  # at '('
        depth = 0
        colon = -1
        k = j
        while k < end:
            if toks[k].text == "(":
                depth += 1
            elif toks[k].text == ")":
                depth -= 1
                if depth == 0:
                    break
            elif toks[k].text == ":" and depth == 1 and colon == -1:
                colon = k
            k += 1
        close = k
        if close >= end:
            return i + 1
        # Loop body span.
        b = close + 1
        if b < end and toks[b].text == "{":
            depth = 1
            m = b + 1
            while m < end and depth:
                if toks[m].text == "{":
                    depth += 1
                elif toks[m].text == "}":
                    depth -= 1
                m += 1
            body = (b + 1, m - 1)
        else:
            m = b
            depth = 0
            while m < end:
                if toks[m].text in ("(", "[", "{"):
                    depth += 1
                elif toks[m].text in (")", "]", "}"):
                    depth -= 1
                elif toks[m].text == ";" and depth == 0:
                    break
                m += 1
            body = (b, m)
        if colon != -1:
            expr = toks[colon + 1 : close]
            fn.range_fors.append(RangeFor(expr, body, toks[i].line))
        else:
            # Iterator loop: look for `X.begin()` / `X->begin()` in header.
            hdr = toks[j + 1 : close]
            for idx in range(len(hdr) - 2):
                if hdr[idx + 1].text in (".", "->") and \
                        hdr[idx + 2].text in ("begin", "cbegin") and \
                        hdr[idx].kind == ID:
                    fn.range_fors.append(
                        RangeFor([hdr[idx]], body, toks[i].line))
                    break
        return close + 1


def _parse_decl(stmt: list[Tok]) -> tuple[str, str, int] | None:
    """Heuristic variable-declaration parser. Returns (name, type-text,
    line) or None. Requires at least one type token before the name so
    plain calls/assignments are not mistaken for declarations."""
    if not stmt:
        return None
    if stmt[0].kind != ID or stmt[0].text in _NOT_DECL_START:
        return None
    angle = 0
    type_toks: list[Tok] = []
    i = 0
    n = len(stmt)
    prev: Tok | None = None
    while i < n:
        t = stmt[i]
        if t.text == "<" and prev is not None and (prev.kind == ID or
                                                   prev.text == ">"):
            angle += 1
            type_toks.append(t)
        elif t.text in (">", ">>") and angle > 0:
            angle -= 2 if t.text == ">>" else 1
            angle = max(angle, 0)
            type_toks.append(t)
        elif angle > 0:
            type_toks.append(t)
        elif t.kind == ID or t.text in ("::", "*", "&", "&&"):
            type_toks.append(t)
        else:
            break
        prev = t
        i += 1
    nxt = stmt[i] if i < n else None
    # The candidate name is the last plain identifier collected; everything
    # before it is the type. Need >= 2 ids (type + name) unless 'auto'.
    ids = [t for t in type_toks if t.kind == ID]
    if len(ids) < 2:
        return None
    name_tok = type_toks[-1]
    if name_tok.kind != ID:
        return None
    if nxt is not None and nxt.text not in ("=", "{", ";", ",", "("):
        return None
    if nxt is not None and nxt.text == "(":
        # `Type name(args);` direct-init declaration vs. a call `f(args)`:
        # calls were already excluded by the >= 2 id requirement.
        pass
    ttype = " ".join(t.text for t in type_toks[:-1])
    if name_tok.text in _NOT_DECL_START or not ttype:
        return None
    return name_tok.text, ttype, name_tok.line


class Unit:
    """A translation unit view: one or two FileModels (header + source)
    with classes merged by name."""

    def __init__(self, models: list[FileModel]):
        self.models = models
        self.classes: dict[str, ClassInfo] = {}
        for m in models:
            for name, ci in m.classes.items():
                if name not in self.classes:
                    merged = ClassInfo(name, ci.scope)
                    self.classes[name] = merged
                merged = self.classes[name]
                if merged.scope is None:
                    merged.scope = ci.scope
                merged.fields.update(ci.fields)
                merged.field_lines.update(ci.field_lines)
                merged.decls.extend(ci.decls)
                merged.methods.extend(ci.methods)

    def functions(self):
        for m in self.models:
            yield from m.functions
