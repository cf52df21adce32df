"""Frontend: token-stream structural parser -> IR.

Dependency-free: it needs only the Python 3 standard library. It is
not a general C++ parser; it is a scope-tracking pass over the real token
stream (lexer.py) that recovers exactly the structure the rules need:
the include list, class definitions with base-specifiers and member
function names, call expressions with decomposed arguments, namespace
/ class / function-local variable declarations with storage class,
type-name uses (through ``using``/``typedef`` aliases), range-for
statements, string literals, and string constants.

Accuracy notes: names are matched per scope rather
than resolved through lookup, so a class shadowing another's name in a
different namespace would be conflated. The FRFC tree keeps one
``frfc`` namespace with unique type names (enforced by review), and
the fixture corpus pins the behaviors the rules rely on.
"""

from pathlib import Path
import re
from typing import List, Optional, Tuple

from .ir import (Arg, CallSite, ClassInfo, ConstDef, Include,
                 MethodInfo, RangeFor, StringLit, TranslationUnit,
                 TypeUse, VarDecl)
from .lexer import Token, lex, string_value

_INCLUDE_RE = re.compile(r'#\s*include\s*(?:"([^"]+)"|<([^>]+)>)')

_HOT_TYPES = ("std::unordered_map", "std::unordered_set",
              "std::map", "std::deque")

_SCOPE_NAMESPACE = "namespace"
_SCOPE_CLASS = "class"
_SCOPE_ENUM = "enum"
_SCOPE_BLOCK = "block"
_SCOPE_EXTERN = "extern"

_ACCESS = {"public", "private", "protected"}
_DECL_QUALIFIERS = {"inline", "static", "thread_local", "constexpr",
                    "const", "mutable", "extern", "register",
                    "volatile", "constinit"}


class _Scope:
    def __init__(self, kind: str, name: str = ""):
        self.kind = kind
        self.name = name


def _match_forward(tokens: List[Token], i: int, open_t: str,
                   close_t: str) -> int:
    """Index just past the token closing the bracket at tokens[i]."""
    depth = 0
    n = len(tokens)
    while i < n:
        t = tokens[i].text
        if t == open_t:
            depth += 1
        elif t == close_t:
            depth -= 1
            if depth == 0:
                return i + 1
        i += 1
    return n


def _angle_close(tokens: List[Token], i: int) -> Optional[int]:
    """Given tokens[i] == '<', find matching '>' conservatively.

    Returns the index just past '>', or None when this '<' cannot be a
    template-argument list (hits ;, {, }, or unbalanced closers).
    """
    depth = 0
    n = len(tokens)
    while i < n:
        t = tokens[i].text
        if t == "<":
            depth += 1
        elif t in (">", ">>"):
            depth -= 2 if t == ">>" else 1
            if depth <= 0:
                return i + 1
        elif t in (";", "{", "}"):
            return None
        elif t in ("&&", "||"):
            return None
        i += 1
    return None


def _join(tokens: List[Token]) -> str:
    """Compact spelling of a token run (diagnostics only)."""
    out: List[str] = []
    for t in tokens:
        if out and t.kind == "id" and out[-1] and (
                out[-1][-1].isalnum() or out[-1][-1] == "_"):
            out.append(" ")
        out.append(t.text)
    return "".join(out)


def _decompose_arg(tokens: List[Token]) -> Arg:
    text = _join(tokens)
    if not tokens:
        return Arg(text="")
    if all(t.kind == "str" for t in tokens):
        return Arg(text=text,
                   literal="".join(string_value(t.text) for t in tokens))
    if len(tokens) == 1 and tokens[0].kind == "id":
        return Arg(text=text, ident=tokens[0].text)
    # Trailing "+ <string literal>" run: dynamic prefix + literal tail.
    tail: List[str] = []
    i = len(tokens)
    while i >= 2 and tokens[i - 1].kind == "str" \
            and tokens[i - 2].text == "+":
        tail.insert(0, string_value(tokens[i - 1].text))
        i -= 2
    if tail:
        return Arg(text=text, concat="".join(tail))
    return Arg(text=text)


def _receiver_text(tokens: List[Token], i: int) -> str:
    """Spelling of the receiver chain ending just before tokens[i].

    Walks back over ``name``, ``(...)`` (chained call), ``::``, ``.``
    and ``->`` links. tokens[i] is the callee identifier.
    """
    j = i - 1
    parts: List[Token] = []
    expect_link = True  # next backward token must be a link to continue
    while j >= 0:
        t = tokens[j]
        if expect_link:
            if t.text in (".", "->", "::"):
                parts.insert(0, t)
                expect_link = False
                j -= 1
                continue
            break
        # operand position: id, or ')' closing a call/paren group
        if t.kind == "id":
            parts.insert(0, t)
            expect_link = True
            j -= 1
            continue
        if t.text == ")":
            depth = 0
            k = j
            while k >= 0:
                if tokens[k].text == ")":
                    depth += 1
                elif tokens[k].text == "(":
                    depth -= 1
                    if depth == 0:
                        break
                k -= 1
            if k < 0:
                break
            parts[0:0] = tokens[k:j + 1]
            j = k - 1
            # a call: include its callee name too
            if j >= 0 and tokens[j].kind == "id":
                parts.insert(0, tokens[j])
                j -= 1
            expect_link = True
            continue
        break
    # Drop a leading link ('.'/'->'), which has no operand to its left.
    while parts and parts[0].text in (".", "->", "::"):
        parts.pop(0)
    return _join(parts)


def parse_file(path: Path, root: Path) -> TranslationUnit:
    rel = path.relative_to(root).as_posix()
    text = path.read_text(encoding="utf-8")
    lexed = lex(text)
    tokens = lexed.tokens
    tu = TranslationUnit(path=rel)
    tu.allows = {line: list(rules)
                 for line, rules in lexed.allows.items()}

    # ---- pass 1: preprocessor (includes) --------------------------------
    for t in tokens:
        if t.kind != "pp":
            continue
        m = _INCLUDE_RE.match(t.text)
        if m:
            target = m.group(1) or m.group(2)
            tu.includes.append(Include(file=rel, line=t.line,
                                       target=target,
                                       system=m.group(1) is None))

    # ---- pass 2: scopes, classes, declarations --------------------------
    code = [t for t in tokens if t.kind != "pp"]
    n = len(code)
    scopes: List[_Scope] = []
    aliases = {}  # alias name -> canonical hot-container type

    def innermost_named() -> Tuple[str, str]:
        """(kind, class name) of the innermost non-block scope."""
        for s in reversed(scopes):
            if s.kind == _SCOPE_BLOCK:
                return ("function", "")
            if s.kind == _SCOPE_CLASS:
                return ("class", s.name)
            if s.kind in (_SCOPE_NAMESPACE, _SCOPE_EXTERN):
                return ("namespace", s.name)
            if s.kind == _SCOPE_ENUM:
                return ("enum", s.name)
        return ("namespace", "")

    def qualified(name: str) -> str:
        ns = [s.name for s in scopes
              if s.kind == _SCOPE_NAMESPACE and s.name]
        return "::".join(ns + [name]) if ns else name

    def current_class() -> Optional[ClassInfo]:
        for s in reversed(scopes):
            if s.kind == _SCOPE_CLASS:
                for ci in reversed(tu.classes):
                    if ci.name == s.name:
                        return ci
            if s.kind == _SCOPE_BLOCK:
                return None
        return None

    def scan_statement(start: int) -> int:
        """Handle one declaration/statement at namespace/class scope.

        Returns the index to continue from. Emits VarDecl / ConstDef /
        ClassInfo headers as encountered; pushes scopes for '{'.
        """
        i = start
        t = code[i]

        # namespace [name] {
        if t.text == "namespace":
            j = i + 1
            name = ""
            if j < n and code[j].kind == "id":
                name = code[j].text
                j += 1
            while j < n and code[j].text not in ("{", ";"):
                j += 1
            if j < n and code[j].text == "{":
                scopes.append(_Scope(_SCOPE_NAMESPACE, name))
                return j + 1
            return j + 1

        # extern "C" { ... }
        if t.text == "extern" and i + 1 < n and code[i + 1].kind == "str":
            j = i + 2
            if j < n and code[j].text == "{":
                scopes.append(_Scope(_SCOPE_EXTERN))
                return j + 1
            return j

        # using alias / typedef
        if t.text in ("using", "typedef"):
            j = i
            while j < n and code[j].text != ";":
                j += 1
            stmt = code[i:j]
            # The definition line's own literal std:: spelling is
            # reported by the pass-3 scan; here we only register the
            # alias name for use-site tracking.
            if t.text == "using" and len(stmt) >= 3 \
                    and stmt[1].kind == "id" and stmt[2].text == "=":
                alias = stmt[1].text
                spelled = _join(stmt[3:])
                for hot in _HOT_TYPES:
                    if hot in spelled:
                        aliases[alias] = hot
            elif t.text == "typedef" and len(stmt) >= 3 \
                    and stmt[-1].kind == "id":
                alias = stmt[-1].text
                spelled = _join(stmt[1:-1])
                for hot in _HOT_TYPES:
                    if hot in spelled:
                        aliases[alias] = hot
            return j + 1

        # enum [class] [name] [: base] { ... }
        if t.text == "enum":
            j = i + 1
            while j < n and code[j].text not in ("{", ";"):
                j += 1
            if j < n and code[j].text == "{":
                scopes.append(_Scope(_SCOPE_ENUM))
                return j + 1
            return j + 1

        # class/struct definition or forward declaration
        if t.text in ("class", "struct"):
            j = i + 1
            # skip attributes / alignas
            while j < n and code[j].text == "[":
                j = _match_forward(code, j, "[", "]")
            if j >= n or code[j].kind != "id":
                return i + 1
            name = code[j].text
            j += 1
            if j < n and code[j].text == "final":
                j += 1
            bases: List[str] = []
            if j < n and code[j].text == ":":
                j += 1
                run: List[Token] = []
                depth = 0
                while j < n:
                    tt = code[j].text
                    if tt == "<":
                        end = _angle_close(code, j)
                        if end is None:
                            j += 1
                            continue
                        j = end
                        continue
                    if tt == "{" and depth == 0:
                        break
                    if tt == "," and depth == 0:
                        if run:
                            bases.append(_join(
                                [x for x in run
                                 if x.text not in _ACCESS
                                 and x.text != "virtual"]))
                        run = []
                    elif tt == ";":
                        # `Type x : 3;` bitfield or similar — not a class
                        return j + 1
                    else:
                        run.append(code[j])
                    j += 1
                if run:
                    bases.append(_join(
                        [x for x in run
                         if x.text not in _ACCESS
                         and x.text != "virtual"]))
            if j < n and code[j].text == "{":
                tu.classes.append(ClassInfo(
                    name=name, qualified=qualified(name), file=rel,
                    line=t.line, bases=[b for b in bases if b]))
                scopes.append(_Scope(_SCOPE_CLASS, name))
                return j + 1
            # forward declaration / variable of elaborated type
            while j < n and code[j].text != ";":
                j += 1
            return j + 1

        # template<...> headers: skip the parameter list
        if t.text == "template" and i + 1 < n \
                and code[i + 1].text == "<":
            end = _angle_close(code, i + 1)
            return end if end is not None else i + 2

        if t.text in ("public", "private", "protected") \
                and i + 1 < n and code[i + 1].text == ":":
            return i + 2

        if t.text == "static_assert":
            j = i + 1
            if j < n and code[j].text == "(":
                j = _match_forward(code, j, "(", ")")
            return j

        if t.text == "friend":
            j = i
            while j < n and code[j].text not in (";", "{"):
                j += 1
            return j + 1

        # Generic declaration statement: gather to ';' or body '{'.
        j = i
        quals = set()
        seen: List[Token] = []
        paren_after_name = False
        name_tok: Optional[Token] = None
        while j < n:
            tt = code[j]
            if tt.text in ("{", ";", "="):
                break
            if tt.text == "(":
                # function declarator (or constructor) — the previous
                # identifier is the function name
                if seen and seen[-1].kind == "id":
                    paren_after_name = True
                    name_tok = seen[-1]
                j = _match_forward(code, j, "(", ")")
                continue
            if tt.text == "<":
                end = _angle_close(code, j)
                if end is not None:
                    seen.extend(code[j:end])
                    j = end
                    continue
            if tt.kind == "id" and tt.text in _DECL_QUALIFIERS:
                quals.add(tt.text)
            seen.append(tt)
            j += 1
        terminator = code[j].text if j < n else ";"

        if paren_after_name and name_tok is not None:
            # Function declaration/definition (or macro-style call).
            kind, cls_name = innermost_named()
            if kind == "class":
                ci = current_class()
                if ci is not None:
                    # override/virtual markers live between ')' and
                    # the terminator; 'seen' skipped the paren groups,
                    # so scan the raw slice.
                    slice_text = {x.text for x in code[i:j]}
                    ci.methods.append(MethodInfo(
                        name=name_tok.text, line=name_tok.line,
                        is_override="override" in slice_text,
                        is_virtual="virtual" in slice_text))
            if terminator == "{":
                scopes.append(_Scope(_SCOPE_BLOCK))
                return j + 1
            if terminator == "=":
                # = default / = delete / = 0
                while j < n and code[j].text != ";":
                    j += 1
            return j + 1

        # Variable declaration candidate. Statements opening with a
        # control keyword can reach here when scope tracking slips on
        # exotic code; never report them as declarations.
        ids = [x for x in seen if x.kind == "id"
               and x.text not in _DECL_QUALIFIERS]
        if seen and seen[0].text in ("return", "if", "else", "while",
                                     "do", "for", "switch", "case",
                                     "break", "continue", "goto",
                                     "throw", "delete", "new"):
            ids = []
        if ids and terminator in ("=", "{", ";"):
            name_t = ids[-1]
            kind, _cls = innermost_named()
            if kind in ("namespace", "class") and len(ids) >= 2:
                type_tokens = seen[:seen.index(name_t)]
                type_text = _join(type_tokens)
                tu.vars.append(VarDecl(
                    file=rel, line=name_t.line, name=name_t.text,
                    type_text=type_text,
                    is_static="static" in quals,
                    is_thread_local="thread_local" in quals,
                    is_const=("const" in quals
                              or "constexpr" in quals
                              or "constinit" in quals),
                    is_member=(kind == "class"),
                    scope=kind))
                # String constant?
                if "char" in type_text and "*" in type_text \
                        and terminator == "=":
                    k = j + 1
                    lits: List[Token] = []
                    while k < n and code[k].text != ";":
                        if code[k].kind == "str":
                            lits.append(code[k])
                        elif code[k].kind != "punct":
                            lits = []
                            break
                        k += 1
                    if lits:
                        tu.consts.append(ConstDef(
                            file=rel, line=name_t.line,
                            name=name_t.text,
                            value="".join(string_value(x.text)
                                          for x in lits)))
        # Advance past any initializer to the statement end.
        if terminator == "{":
            j = _match_forward(code, j, "{", "}")
            if j < n and code[j].text == ";":
                j += 1
            return j
        if terminator == "=":
            while j < n and code[j].text != ";":
                if code[j].text == "{":
                    j = _match_forward(code, j, "{", "}")
                    continue
                if code[j].text == "(":
                    j = _match_forward(code, j, "(", ")")
                    continue
                j += 1
        return j + 1

    i = 0
    while i < n:
        t = code[i]
        if t.text == "}":
            if scopes:
                scopes.pop()
            i += 1
            continue
        if t.text == "{":
            scopes.append(_Scope(_SCOPE_BLOCK))
            i += 1
            continue
        kind, _ = innermost_named()
        if kind in ("namespace", "class"):
            i = scan_statement(i)
            continue
        # Function/block scope: only local statics matter here.
        if t.text in ("static", "thread_local"):
            j = i
            quals = set()
            seen: List[Token] = []
            while j < n and code[j].text not in (";", "{", "=", "("):
                if code[j].kind == "id" \
                        and code[j].text in _DECL_QUALIFIERS:
                    quals.add(code[j].text)
                else:
                    seen.append(code[j])
                if code[j].text == "<":
                    end = _angle_close(code, j)
                    if end is not None:
                        seen.extend(code[j + 1:end])
                        j = end
                        continue
                j += 1
            terminator = code[j].text if j < n else ";"
            ids = [x for x in seen if x.kind == "id"]
            if terminator in ("=", "{", ";") and len(ids) >= 2:
                name_t = ids[-1]
                tu.vars.append(VarDecl(
                    file=rel, line=name_t.line, name=name_t.text,
                    type_text=_join(seen[:seen.index(name_t)]),
                    is_static="static" in quals,
                    is_thread_local="thread_local" in quals,
                    is_const=("const" in quals
                              or "constexpr" in quals),
                    is_member=False, scope="function"))
            # Skip the initializer so its braces/parens never reach
            # the scope loop (a brace-init would pop the function
            # scope early).
            while j < n and code[j].text != ";":
                if code[j].text == "{":
                    j = _match_forward(code, j, "{", "}")
                    continue
                if code[j].text == "(":
                    j = _match_forward(code, j, "(", ")")
                    continue
                j += 1
            i = j + 1
            continue
        i += 1

    # ---- pass 3: flat scans (calls, types, range-for, strings) ----------
    for idx, t in enumerate(code):
        if t.kind == "str":
            tu.strings.append(StringLit(file=rel, line=t.line,
                                        value=string_value(t.text)))

    for idx, t in enumerate(code):
        if t.kind != "id":
            continue
        # range-for
        if t.text == "for" and idx + 1 < n and code[idx + 1].text == "(":
            close = _match_forward(code, idx + 1, "(", ")")
            inner = code[idx + 2:close - 1]
            depth = 0
            for k, x in enumerate(inner):
                if x.text in ("(", "[", "{"):
                    depth += 1
                elif x.text in (")", "]", "}"):
                    depth -= 1
                elif x.text == ":" and depth == 0:
                    prev = inner[k - 1].text if k else ""
                    if prev == ":":
                        break  # '::', not a range-for
                    tu.range_fors.append(RangeFor(
                        file=rel, line=t.line,
                        range_text=_join(inner[k + 1:])))
                    break
            continue
        # hot / determinism-relevant type uses: std::X spelled directly
        if t.text == "std" and idx + 2 < n \
                and code[idx + 1].text == "::" \
                and code[idx + 2].kind == "id":
            name = "std::" + code[idx + 2].text
            if name in _HOT_TYPES or name == "std::random_device":
                tu.type_uses.append(TypeUse(file=rel, line=t.line,
                                            name=name))
            continue
        # alias uses
        if t.text in aliases:
            # Only count declaration-ish uses (followed by '<' or an
            # identifier), not the alias definition itself.
            if idx + 1 < n and (code[idx + 1].text == "<"
                                or code[idx + 1].kind == "id"):
                tu.type_uses.append(TypeUse(
                    file=rel, line=t.line, name=aliases[t.text],
                    via_alias=t.text))
            continue
        # call expression
        j = idx + 1
        template_args = ""
        if j < n and code[j].text == "<":
            end = _angle_close(code, j)
            if end is not None and end < n and code[end].text == "(":
                template_args = _join(code[j + 1:end - 1])
                j = end
        if j < n and code[j].text == "(" and t.text not in (
                "if", "for", "while", "switch", "return", "sizeof",
                "alignof", "catch", "new", "delete", "throw",
                "static_assert", "defined", "noexcept", "assert"):
            close = _match_forward(code, j, "(", ")")
            inner = code[j + 1:close - 1]
            args: List[Arg] = []
            if inner:
                depth = 0
                run: List[Token] = []
                for x in inner:
                    if x.text in ("(", "[", "{"):
                        depth += 1
                    elif x.text in (")", "]", "}"):
                        depth -= 1
                    elif x.text == "<":
                        pass
                    if x.text == "," and depth == 0:
                        args.append(_decompose_arg(run))
                        run = []
                    else:
                        run.append(x)
                args.append(_decompose_arg(run))
            receiver = _receiver_text(code, idx)
            tu.calls.append(CallSite(
                file=rel, line=t.line, callee=t.text,
                receiver=receiver,
                template_args=template_args, args=args))
            # ConfigScope variable: `<name> = <recv>.scope("p")...;`
            if t.text == "scope" and len(args) == 1 \
                    and args[0].literal is not None and receiver:
                k = idx - 1
                # walk back over the receiver chain to the '='
                depth = 0
                while k >= 0:
                    tt = code[k].text
                    if tt in (")", "]"):
                        depth += 1
                    elif tt in ("(", "["):
                        depth -= 1
                        if depth < 0:
                            break
                    elif depth == 0 and tt in (";", "{", "}", ","):
                        break
                    elif depth == 0 and tt == "=":
                        if k >= 1 and code[k - 1].kind == "id":
                            tu.scope_vars[code[k - 1].text] = \
                                args[0].literal
                        break
                    k -= 1
    return tu
