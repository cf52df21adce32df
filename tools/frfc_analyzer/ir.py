"""Intermediate representation the rules run over.

The frontend (frontend_internal.py) lowers a translation unit to a
``TranslationUnit`` carrying exactly the facts the rules consume.
Keeping the IR small and explicit is what keeps the rules simple and
the fixtures tiny: a rule never reaches around the IR back into
tokens.

All paths stored in the IR are repo-root-relative POSIX paths.
"""

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple


@dataclass
class Include:
    """One ``#include`` directive."""

    file: str          # including file (repo-relative)
    line: int
    target: str        # as spelled between the delimiters
    system: bool       # <...> include


@dataclass
class MethodInfo:
    """A member-function declaration inside a class body."""

    name: str
    line: int
    is_override: bool = False
    is_virtual: bool = False


@dataclass
class ClassInfo:
    """A class/struct definition with its base-specifier list."""

    name: str                    # unqualified name
    qualified: str               # namespace-qualified (frfc::FrRouter)
    file: str
    line: int
    bases: List[str] = field(default_factory=list)   # as spelled
    methods: List[MethodInfo] = field(default_factory=list)

    def method(self, name: str) -> Optional[MethodInfo]:
        for m in self.methods:
            if m.name == name:
                return m
        return None


@dataclass
class Arg:
    """One call argument, decomposed as far as the parser could.

    ``literal`` is set when the argument is (a concatenation of)
    string literals; ``ident`` when it is a lone identifier;
    ``concat`` when it is ``<expr> + "literal"`` — the common
    dynamic-prefix metric-path shape — holding the literal tail.
    ``text`` always carries the raw spelling for diagnostics.
    """

    text: str
    literal: Optional[str] = None
    ident: Optional[str] = None
    concat: Optional[str] = None


@dataclass
class CallSite:
    """A member/free call expression: ``recv.callee<targs>(args)``."""

    file: str
    line: int
    callee: str                  # final name: get, scope, attachCounter
    receiver: str                # spelling of the receiver chain ('' if none)
    template_args: str           # text inside <...> ('' if none)
    args: List[Arg] = field(default_factory=list)


@dataclass
class VarDecl:
    """A variable declaration relevant to determinism/shard-safety.

    Frontends emit namespace-scope variables, static data members, and
    function-local statics/thread_locals. Plain automatic locals are
    not emitted (they are never shared state).
    """

    file: str
    line: int
    name: str
    type_text: str
    is_static: bool = False          # static storage at namespace/class/function scope
    is_thread_local: bool = False
    is_const: bool = False           # const or constexpr
    is_member: bool = False          # static data member
    scope: str = ""                  # 'namespace' | 'class' | 'function'


@dataclass
class TypeUse:
    """An appearance of a named type in a declaration context."""

    file: str
    line: int
    name: str                    # canonical: std::unordered_map, ...
    via_alias: str = ""          # alias name when reached through one


@dataclass
class RangeFor:
    """A range-based for statement: ``for (... : range_expr)``."""

    file: str
    line: int
    range_text: str              # spelling of the range expression


@dataclass
class StringLit:
    """A string literal outside comments (for key-literal rules)."""

    file: str
    line: int
    value: str


@dataclass
class ConstDef:
    """A string constant: ``constexpr const char* kX = "...";``."""

    file: str
    line: int
    name: str
    value: str


@dataclass
class TranslationUnit:
    """Everything the rules need to know about one source file."""

    path: str                                    # repo-relative
    includes: List[Include] = field(default_factory=list)
    classes: List[ClassInfo] = field(default_factory=list)
    calls: List[CallSite] = field(default_factory=list)
    vars: List[VarDecl] = field(default_factory=list)
    type_uses: List[TypeUse] = field(default_factory=list)
    range_fors: List[RangeFor] = field(default_factory=list)
    strings: List[StringLit] = field(default_factory=list)
    consts: List[ConstDef] = field(default_factory=list)
    # ConfigScope variables: name -> prefix, from declarations like
    # `const ConfigScope run = cfg.scope("run");`
    scope_vars: Dict[str, str] = field(default_factory=dict)
    # line -> set of rule ids allowed inline on that line
    allows: Dict[int, List[str]] = field(default_factory=dict)


@dataclass
class Finding:
    """One rule violation, in the shape the reporters expect."""

    rule: str
    file: str
    line: int
    message: str
    suppressed: bool = False
    suppression: str = ""        # 'inline' | 'baseline' when suppressed

    def key(self) -> Tuple[str, str, int]:
        return (self.rule, self.file, self.line)


class Program:
    """The whole-program view handed to cross-check rules."""

    def __init__(self, units: List[TranslationUnit], root: str):
        self.units = units
        self.root = root
        self._by_path = {u.path: u for u in units}

    def unit(self, path: str) -> Optional[TranslationUnit]:
        return self._by_path.get(path)

    def class_index(self) -> Dict[str, ClassInfo]:
        """Last-definition-wins map from unqualified class name.

        Class names are unique per scope in this codebase (one
        namespace, one definition per header); fixtures rely on the
        same property.
        """
        index: Dict[str, ClassInfo] = {}
        for tu in self.units:
            for ci in tu.classes:
                index.setdefault(ci.name, ci)
        return index

    def derives_from(self, cls: "ClassInfo", base: str,
                     index: Dict[str, "ClassInfo"]) -> bool:
        """Transitive inheritance walk over the base-specifier graph."""
        seen = set()
        work = list(cls.bases)
        while work:
            b = work.pop()
            name = b.split("::")[-1]
            if name == base:
                return True
            if name in seen:
                continue
            seen.add(name)
            parent = index.get(name)
            if parent is not None:
                work.extend(parent.bases)
        return False
