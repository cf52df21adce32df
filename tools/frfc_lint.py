#!/usr/bin/env python3
"""frfc-lint: textual, single-line style checks for the FRFC simulator.

This is the *textual* half of the repo's static checks: rules whose
whole truth lives on one source line. Everything that needs real
program structure — the Clocked/nextWake quiescence contract,
determinism/shard-safety, fault-RNG centralization, hot-path container
bans, config-key and metric-path schemas, module layering — lives in
the AST-grade analyzer (tools/frfc_analyzer; DESIGN.md §14) and was
deleted from this lint when it migrated there.

Rules (suppress one occurrence with `// frfc-lint: allow(<rule>)` on
the offending line; every suppression must carry a reason in a nearby
comment so reviewers can audit it):

  logging       No std::cout/std::cerr/printf/<iostream> in src/
                outside the log module (src/common/log.*) and the
                structured-output writers (src/harness/report.cpp,
                src/harness/json.cpp). Diagnostics go through
                common/log.hpp so verbosity stays controllable.
  assert        Use FRFC_ASSERT (common/log.hpp), not bare assert():
                FRFC_ASSERT reports through the log module and stays
                active in release builds.
  namespace     No `using namespace std`.
  workload-keys Workload configuration is resolved only by
                src/traffic/workload.* (PR 7). Outside src/traffic/,
                the legacy flat key literals ("offered",
                "packet_length", "injection", "trace") are forbidden
                everywhere but tests/ (which check that they are
                rejected), and src/ files must spell "workload.*" keys
                through the k*Key constants of traffic/workload.hpp
                rather than raw string literals. Benches and examples
                may write "workload.*" literals (they model user
                config files).

Exit status: 0 when clean, 1 when any finding is reported, 2 on usage
errors. Requires only the Python 3 standard library.
"""

import argparse
import re
import sys
from pathlib import Path

CXX_SUFFIXES = {".cpp", ".hpp", ".cc", ".hh", ".h"}

# Directories scanned relative to the repo root. Tests and benches are
# held to the same assert/namespace bar as src/. The analyzer's
# fixture corpus is deliberate-violation material and is excluded.
SCAN_DIRS = ["src", "tests", "bench", "examples", "tools"]
EXCLUDE_PREFIXES = ("tests/analyzer/fixtures/",)

ALLOW_RE = re.compile(r"//\s*frfc-lint:\s*allow\(([a-z-]+)\)")
LINE_COMMENT_RE = re.compile(r"//(?!\s*frfc-lint:).*$")
STRING_RE = re.compile(r'"(?:[^"\\]|\\.)*"')

RULES = {}


def rule(name):
    def wrap(fn):
        RULES[name] = fn
        return fn
    return wrap


def relpath(path, root):
    return path.relative_to(root).as_posix()


def strip_comment(line):
    """Drop a trailing // comment but keep frfc-lint directives."""
    return LINE_COMMENT_RE.sub("", line)


LOGGING_ALLOWED = {
    "src/common/log.cpp", "src/common/log.hpp",
    "src/harness/report.cpp",  # writes the table/CSV reports
    "src/harness/json.cpp",    # writes structured JSON output
}
LOGGING_RE = re.compile(
    r"std::c(?:out|err)\b|(?<![\w:])f?printf\s*\(|#\s*include\s*<iostream>")


@rule("logging")
def check_logging(rel, lines, report):
    if not rel.startswith("src/") or rel in LOGGING_ALLOWED:
        return
    for num, line in enumerate(lines, 1):
        code = STRING_RE.sub('""', strip_comment(line))
        if LOGGING_RE.search(code):
            report(num, "direct console output in src/; route it "
                        "through common/log.hpp")


ASSERT_RE = re.compile(r"(?<![\w_])assert\s*\(")


@rule("assert")
def check_assert(rel, lines, report):
    for num, line in enumerate(lines, 1):
        code = STRING_RE.sub('""', strip_comment(line))
        if "static_assert" in code:
            code = code.replace("static_assert", "")
        if ASSERT_RE.search(code):
            report(num, "bare assert(); use FRFC_ASSERT from "
                        "common/log.hpp")


# Exact legacy workload key literals; "workload."-prefixed literals are
# matched separately so misspellings like "workload.offred" still show
# up as raw literals in src/.
WORKLOAD_LEGACY_LITERALS = {
    '"offered"', '"packet_length"', '"injection"', '"trace"'}


@rule("workload-keys")
def check_workload_keys(rel, lines, report):
    # tests/ check on purpose that the removed keys are rejected, and
    # src/traffic/ owns the workload vocabulary (resolver, generator
    # describe() labels, trace column names).
    if rel.startswith("tests/") or rel.startswith("src/traffic/"):
        return
    for num, line in enumerate(lines, 1):
        for lit in STRING_RE.findall(strip_comment(line)):
            if lit in WORKLOAD_LEGACY_LITERALS:
                report(num, "legacy workload key literal " + lit
                            + "; use the workload.* namespace (resolved "
                            "in traffic/workload.hpp)")
            elif lit.startswith('"workload.') and rel.startswith("src/"):
                report(num, "raw workload key literal " + lit
                            + " in src/; use the k*Key constants from "
                            "traffic/workload.hpp")


NAMESPACE_RE = re.compile(r"\busing\s+namespace\s+std\b")


@rule("namespace")
def check_namespace(rel, lines, report):
    for num, line in enumerate(lines, 1):
        if NAMESPACE_RE.search(strip_comment(line)):
            report(num, "using namespace std")


def lint_file(path, root, findings):
    rel = relpath(path, root)
    try:
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    except UnicodeDecodeError:
        findings.append((rel, 0, "encoding", "file is not valid UTF-8"))
        return
    for name, check in RULES.items():
        def report(num, message, name=name):
            line = lines[num - 1] if 0 < num <= len(lines) else ""
            allow = ALLOW_RE.search(line)
            if allow and allow.group(1) == name:
                return
            findings.append((rel, num, name, message))
        check(rel, lines, report)


def main(argv):
    parser = argparse.ArgumentParser(
        prog="frfc_lint", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("paths", nargs="*",
                        help="files or directories to lint "
                             "(default: the standard repo dirs)")
    parser.add_argument("--root", default=None,
                        help="repo root (default: parent of tools/)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print rule names and exit")
    args = parser.parse_args(argv)

    if args.list_rules:
        for name in sorted(RULES):
            print(name)
        return 0

    root = Path(args.root).resolve() if args.root \
        else Path(__file__).resolve().parent.parent
    targets = [Path(p).resolve() for p in args.paths] \
        or [root / d for d in SCAN_DIRS]

    files = []
    for target in targets:
        if target.is_file():
            files.append(target)
        elif target.is_dir():
            files.extend(
                p for p in sorted(target.rglob("*"))
                if p.suffix in CXX_SUFFIXES
                and not relpath(p, root).startswith(EXCLUDE_PREFIXES))

    findings = []
    for path in files:
        lint_file(path, root, findings)

    for rel, num, name, message in findings:
        print("%s:%d: [%s] %s" % (rel, num, name, message))
    if findings:
        print("frfc-lint: %d finding(s) in %d file(s) checked"
              % (len(findings), len(files)), file=sys.stderr)
        return 1
    print("frfc-lint: clean (%d files, %d rules)"
          % (len(files), len(RULES)), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
