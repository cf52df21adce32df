"""config.*: config-key schema extraction and cross-checks.

Harvests every ``Config``/``ConfigScope`` access — ``get<T>("key")``,
``get("key", dflt)``, the deprecated ``getString/Int/Double/Bool``,
``has``, ``set`` — plus ``scope("prefix")`` composition (chained or
through a named ConfigScope variable) and the ``resolve<T>(cfg, kKey,
dflt)`` helper of traffic/workload.cpp. Identifier key
arguments resolve through the program-wide ``constexpr const char*``
constant table (the ``k*Key`` idiom), which the regex lint could never
follow.

The harvest is serialized to docs/config_schema.json — key, type,
default, declaring file — deterministically, so the committed schema
is covered by a byte-identical golden regeneration test. Cross-checks:

  config.undocumented   a key read by the code never appears in
                        README/DESIGN/EXPERIMENTS/docs (a namespace
                        glob like `workload.memory.*` plus the bare
                        leaf counts as documentation)
  config.dead-doc       a doc mentions a dotted key in a namespace the
                        code owns, but nothing reads it (catches both
                        dead keys and doc typos)
  config.resolver-gap   a key in a fatal-on-unknown resolver's
                        namespace (fault.*) is read outside the
                        resolver file, bypassing its unknown-key check
  config.grammar        a key literal that is not lowercase dotted
                        [a-z0-9_.]
  config.schema-drift   committed docs/config_schema.json differs from
                        the regenerated harvest (run with
                        --write-schemas to refresh)

Resolver files (fromConfig-style, iterate cfg.keys() and fatal on
unknown) enumerate their accepted keys as string-literal comparisons;
those literals are harvested as schema keys with type "resolver".
"""

import json
import re
from typing import Dict, List, Optional

from ..ir import CallSite, Finding, Program, TranslationUnit
from . import Context, family

_DOCS = {
    "config.undocumented": "config key read by the code but absent "
                           "from README/DESIGN/EXPERIMENTS/docs",
    "config.dead-doc": "documented config key that nothing reads",
    "config.resolver-gap": "key in a fatal-on-unknown resolver's "
                           "namespace read outside the resolver",
    "config.grammar": "config key must be lowercase dotted "
                      "[a-z0-9_.]",
    "config.schema-drift": "docs/config_schema.json is stale; "
                           "regenerate with --write-schemas",
}

SCHEMA_REL = "docs/config_schema.json"

# Receiver identifiers accepted as a Config object when no scope
# information is available. Kept tight so unrelated .get() calls
# (JsonValue, std::optional) never harvest phantom keys.
_CONFIG_RECEIVERS = {"cfg", "config", "cfg_", "config_"}

_GETTERS = {
    "get": None,            # type from template args or deduced
    "getString": "string",
    "getInt": "int64",
    "getDouble": "double",
    "getBool": "bool",
}
_TYPE_SPELLINGS = {
    "std::string": "string", "string": "string",
    "std::int64_t": "int64", "int64_t": "int64",
    "std::uint64_t": "uint64", "uint64_t": "uint64",
    "int": "int", "double": "double", "bool": "bool",
}

# fromConfig-style resolvers: every key under the namespace must be
# read only inside the resolver file, which fatals on unknown keys.
RESOLVERS = {
    "fault.": "src/sim/fault.cpp",
}

_KEY_GRAMMAR = re.compile(r"\A[a-z][a-z0-9_]*(\.[a-z0-9_]+)*\Z")
_DOC_KEY_RE = re.compile(r"`([a-z][a-z0-9_]*(?:\.[a-z0-9_.*]+)+)`")
_WORD_RE = re.compile(r"[a-z0-9_.*]+")

# Harvest scope: schema keys come from the simulator and its shipped
# drivers. Tests exercise deliberately-invalid and removed keys, so
# they are excluded.
_HARVEST_DIRS = ("src/", "bench/", "examples/")


class KeyInfo:
    def __init__(self, key: str):
        self.key = key
        self.types: List[str] = []
        self.defaults: List[str] = []
        self.read_sites: List[str] = []   # "file:line"
        self.write_sites: List[str] = []

    def note_type(self, t: Optional[str]):
        if t and t not in self.types:
            self.types.append(t)

    def note_default(self, d: Optional[str]):
        if d is not None and d not in self.defaults:
            self.defaults.append(d)


def _const_table(program: Program) -> Dict[str, str]:
    table: Dict[str, str] = {}
    for tu in program.units:
        for c in tu.consts:
            table.setdefault(c.name, c.value)
    return table


def _resolve_key_arg(call: CallSite, argi: int,
                     consts: Dict[str, str]) -> Optional[str]:
    if argi >= len(call.args):
        return None
    a = call.args[argi]
    if a.literal is not None:
        return a.literal
    if a.ident is not None and a.ident in consts:
        return consts[a.ident]
    return None


def _scope_prefix(call: CallSite, tu: TranslationUnit
                  ) -> Optional[str]:
    """Prefix contributed by the receiver, '' when a bare Config.

    Returns None when the receiver is not recognizably a Config or
    ConfigScope (the call is then ignored by the harvest).
    """
    recv = call.receiver
    if not recv:
        return None
    m = re.search(r'(?:^|[.>])scope\("([^"]*)"\)\Z', recv)
    if m:
        return m.group(1) + "."
    parts = [p for p in re.split(r"[.>()\s]+", recv) if p]
    last = parts[-1] if parts else recv
    if last in tu.scope_vars:
        return tu.scope_vars[last] + "."
    if last in _CONFIG_RECEIVERS:
        return ""
    return None


def _deduced_type(call: CallSite) -> Optional[str]:
    t = call.template_args.strip()
    if t:
        return _TYPE_SPELLINGS.get(t, t)
    fixed = _GETTERS.get(call.callee)
    if fixed:
        return fixed
    if call.callee == "get" and len(call.args) >= 2:
        d = call.args[1]
        if d.literal is not None:
            return "string"
        if d.text in ("true", "false"):
            return "bool"
        if re.fullmatch(r"-?\d+", d.text):
            return "int"
        if re.fullmatch(r"-?\d*\.\d+", d.text):
            return "double"
        return "deduced"  # from a non-literal default's type
    return None


def harvest(program: Program) -> Dict[str, KeyInfo]:
    consts = _const_table(program)
    keys: Dict[str, KeyInfo] = {}

    def info(key: str) -> KeyInfo:
        return keys.setdefault(key, KeyInfo(key))

    for tu in program.units:
        if not tu.path.startswith(_HARVEST_DIRS):
            continue
        for call in tu.calls:
            site = "%s:%d" % (tu.path, call.line)
            if call.callee in _GETTERS or call.callee in ("has",
                                                          "set"):
                prefix = _scope_prefix(call, tu)
                if prefix is None:
                    continue
                key = _resolve_key_arg(call, 0, consts)
                if key is None:
                    continue
                key = prefix + key
                ki = info(key)
                if call.callee == "set":
                    ki.write_sites.append(site)
                else:
                    ki.read_sites.append(site)
                    ki.note_type(_deduced_type(call))
                    if call.callee != "has" and len(call.args) >= 2:
                        ki.note_default(call.args[1].text)
            elif call.callee == "resolve" and len(call.args) >= 3:
                # resolve<T>(cfg, key, dflt): the workload resolver
                # helper.
                key = _resolve_key_arg(call, 1, consts)
                if key is None:
                    continue
                ki = info(key)
                ki.read_sites.append(site)
                ki.note_type(_TYPE_SPELLINGS.get(
                    call.template_args.strip(),
                    call.template_args.strip() or None))
                ki.note_default(call.args[2].text)

    # Resolver files: accepted-key literals are schema entries.
    for prefix, path in RESOLVERS.items():
        tu = program.unit(path)
        if tu is None:
            continue
        pat = re.compile(r"\A%s[a-z][a-z0-9_]*\Z" % re.escape(prefix))
        for s in tu.strings:
            if pat.match(s.value):
                ki = info(s.value)
                site = "%s:%d" % (tu.path, s.line)
                if site not in ki.read_sites:
                    ki.read_sites.append(site)
                ki.note_type("resolver")
    return keys


def build_schema(keys: Dict[str, KeyInfo]) -> str:
    entries = []
    for key in sorted(keys):
        ki = keys[key]
        if not ki.read_sites and not ki.write_sites:
            continue
        declared = sorted(ki.read_sites)[0] if ki.read_sites \
            else sorted(ki.write_sites)[0]
        entries.append({
            "key": key,
            "type": ki.types[0] if ki.types else "unknown",
            "default": ki.defaults[0] if ki.defaults else None,
            "declared_in": declared,
            "reads": len(ki.read_sites),
            "writes": len(ki.write_sites),
        })
    doc = {
        "_comment": "Generated by tools/frfc_analyzer (config.* rule "
                    "family); regenerate with: python3 -m "
                    "frfc_analyzer --compdb "
                    "build/compile_commands.json --write-schemas",
        "keys": entries,
    }
    return json.dumps(doc, indent=2) + "\n"


def _documented(key: str, ctx: Context) -> bool:
    leaf_res = {}
    for rel, text in ctx.all_docs():
        if key in text:
            return True
        # Namespace glob + bare leaf: `workload.memory.*` ... `mshrs`
        for m in re.finditer(r"([a-z][a-z0-9_.]*)\.\*", text):
            glob = m.group(1) + "."
            if key.startswith(glob):
                leaf = key[len(glob):]
                pat = leaf_res.setdefault(
                    leaf, re.compile(r"(?<![\w.])%s(?![\w.])"
                                     % re.escape(leaf)))
                if pat.search(text):
                    return True
    return False


@family("config", _DOCS)
def scan(program: Program, ctx: Context) -> List[Finding]:
    findings: List[Finding] = []
    keys = harvest(program)

    def first_site(ki: KeyInfo) -> List[str]:
        sites = sorted(ki.read_sites) or sorted(ki.write_sites)
        f, _, l = sites[0].rpartition(":")
        return [f, int(l)]

    # Grammar.
    for key, ki in sorted(keys.items()):
        if not _KEY_GRAMMAR.match(key):
            f, l = first_site(ki)
            findings.append(Finding(
                rule="config.grammar", file=f, line=l,
                message="config key '%s' is not lowercase dotted "
                        "[a-z0-9_.]" % key))

    # Documented.
    for key, ki in sorted(keys.items()):
        if not ki.read_sites:
            continue
        if not _documented(key, ctx):
            f, l = first_site(ki)
            findings.append(Finding(
                rule="config.undocumented", file=f, line=l,
                message="config key '%s' (read here) is not "
                        "documented in README/DESIGN/EXPERIMENTS/docs"
                        % key))

    # Dead documentation: docs mention a dotted key in a namespace the
    # code owns, but no code reads it.
    owned_roots = {k.split(".")[0] for k in keys if "." in k}
    read_keys = {k for k, ki in keys.items() if ki.read_sites}
    reported = set()
    for rel, text in ctx.all_docs():
        for num, line in enumerate(text.splitlines(), 1):
            for m in _DOC_KEY_RE.finditer(line):
                cand = m.group(1)
                if "*" in cand or cand in read_keys \
                        or cand in reported:
                    continue
                root = cand.split(".")[0]
                if root not in owned_roots:
                    continue
                # A documented prefix of real keys (e.g. `workload.trace`
                # prose) is fine when some read key extends it.
                if any(k.startswith(cand + ".") for k in read_keys):
                    continue
                reported.add(cand)
                findings.append(Finding(
                    rule="config.dead-doc", file=rel, line=num,
                    message="documented config key '%s' is never "
                            "read by the code (dead key or doc typo)"
                            % cand))

    # Resolver coverage.
    for prefix, path in RESOLVERS.items():
        for key, ki in sorted(keys.items()):
            if not key.startswith(prefix):
                continue
            outside = [s for s in ki.read_sites
                       if not s.startswith(path + ":")
                       and s.split(":")[0].startswith("src/")]
            if outside:
                f, _, l = sorted(outside)[0].rpartition(":")
                findings.append(Finding(
                    rule="config.resolver-gap", file=f, line=int(l),
                    message="key '%s' is read outside %s, bypassing "
                            "its fatal-on-unknown namespace check"
                            % (key, path)))

    # Schema drift / generation.
    generated = build_schema(keys)
    schema_path = ctx.root / SCHEMA_REL
    if ctx.write_schemas:
        schema_path.parent.mkdir(parents=True, exist_ok=True)
        schema_path.write_text(generated, encoding="utf-8")
    else:
        committed = schema_path.read_text(encoding="utf-8") \
            if schema_path.is_file() else ""
        if committed != generated:
            findings.append(Finding(
                rule="config.schema-drift", file=SCHEMA_REL, line=1,
                message="committed schema differs from the "
                        "regenerated harvest; run: python3 -m "
                        "frfc_analyzer --compdb "
                        "build/compile_commands.json "
                        "--write-schemas"))
    return findings
