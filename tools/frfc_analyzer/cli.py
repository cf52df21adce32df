"""Command-line driver.

Typical invocations::

  python3 -m frfc_analyzer --compdb build/compile_commands.json
  python3 -m frfc_analyzer --compdb ... --json out=analysis.sarif.json
  python3 -m frfc_analyzer --compdb ... --write-schemas
  python3 -m frfc_analyzer --list-rules

Run from the repo root, or pass --root. ``tools`` is on sys.path when
invoked as ``python3 -m frfc_analyzer`` with ``tools`` as the working
directory; scripts/static_checks.sh and the ctest invoke it via
``PYTHONPATH=tools``.

Exit codes: 0 clean, 1 unsuppressed findings, 2 usage/setup error.
"""

import argparse
import sys
from pathlib import Path
from typing import List

from . import __version__, compdb
from . import frontend_internal
from .ir import Program
from .output import render_sarif, render_text
from .rules import FAMILIES, RULE_DOCS, Context, run_all
from . import suppress

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2

# Directories parsed (repo-relative). The compile database provides
# the TU list for src/; headers and the non-library dirs are parsed
# directly so rules like next-wake see test doubles and bench helpers.
SCAN_DIRS = ("src", "tests", "bench", "examples")
_SUFFIXES = {".cpp", ".hpp", ".cc", ".hh", ".h"}

# The analyzer's own fixture corpus contains deliberate violations.
_EXCLUDE_PREFIX = "tests/analyzer/fixtures/"

SUPPRESSIONS_REL = "tools/frfc_analyzer.suppressions"


def _collect_files(root: Path) -> List[Path]:
    files: List[Path] = []
    for d in SCAN_DIRS:
        base = root / d
        if base.is_dir():
            files.extend(
                p for p in sorted(base.rglob("*"))
                if p.suffix in _SUFFIXES and p.is_file()
                and not p.relative_to(root).as_posix().startswith(
                    _EXCLUDE_PREFIX))
    return files


def _parse_internal(root: Path) -> List:
    units = []
    for path in _collect_files(root):
        try:
            units.append(frontend_internal.parse_file(path, root))
        except (OSError, UnicodeDecodeError) as exc:
            print("frfc-analyzer: cannot parse %s: %s"
                  % (path, exc), file=sys.stderr)
    return units


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="frfc_analyzer",
        description="AST-grade static analysis for the FRFC "
                    "simulator (see tools/frfc_analyzer/__init__.py "
                    "for the rule catalog)")
    parser.add_argument("--compdb", default="build/"
                        "compile_commands.json",
                        help="compile_commands.json path (default: "
                             "build/compile_commands.json)")
    parser.add_argument("--root", default=None,
                        help="repo root (default: two levels above "
                             "this package)")
    parser.add_argument("--json", default=None, metavar="out=FILE",
                        help="also write SARIF-shaped JSON findings "
                             "to FILE")
    parser.add_argument("--rules", default=None,
                        help="comma-separated rule families to run "
                             "(default: all)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print rule families and finding ids, "
                             "then exit")
    parser.add_argument("--write-schemas", action="store_true",
                        help="regenerate docs/config_schema.json and "
                             "docs/metric_schema.json from the tree")
    parser.add_argument("--suppressions", default=None,
                        help="baseline suppression file (default: %s)"
                             % SUPPRESSIONS_REL)
    parser.add_argument("--no-suppressions", action="store_true",
                        help="report baseline-suppressed findings as "
                             "errors (audit mode)")
    parser.add_argument("--show-suppressed", action="store_true",
                        help="include suppressed findings in text "
                             "output")
    args = parser.parse_args(argv)

    if args.list_rules:
        for fam in sorted(FAMILIES):
            print(fam)
            for rid in sorted(RULE_DOCS):
                if rid == fam or rid.startswith(fam + "."):
                    print("  %-28s %s" % (rid, RULE_DOCS[rid]))
        return EXIT_CLEAN

    root = Path(args.root).resolve() if args.root \
        else Path(__file__).resolve().parent.parent.parent
    if not (root / "src").is_dir():
        print("frfc-analyzer: %s does not look like the repo root "
              "(no src/)" % root, file=sys.stderr)
        return EXIT_USAGE

    # Compile database: the TU list and the staleness gate.
    compdb_path = Path(args.compdb)
    if not compdb_path.is_absolute():
        compdb_path = root / compdb_path
    try:
        commands = compdb.load(compdb_path, root)
    except compdb.CompDbError as exc:
        print("frfc-analyzer: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    stale = compdb.check_coverage(commands, root, ["src"])
    if stale:
        print("frfc-analyzer: %s" % stale, file=sys.stderr)
        return EXIT_USAGE

    units = _parse_internal(root)
    program = Program(units, str(root))

    only = args.rules.split(",") if args.rules else None
    if only:
        unknown = [r for r in only if r not in FAMILIES]
        if unknown:
            print("frfc-analyzer: unknown rule families: %s "
                  "(--list-rules shows them)" % ", ".join(unknown),
                  file=sys.stderr)
            return EXIT_USAGE

    ctx = Context(root, write_schemas=args.write_schemas)
    findings = run_all(program, ctx, only)

    # Baseline suppressions.
    sup_path = Path(args.suppressions) if args.suppressions \
        else root / SUPPRESSIONS_REL
    sup_rel = sup_path.relative_to(root).as_posix() \
        if sup_path.is_relative_to(root) else str(sup_path)
    sup = suppress.load(sup_path, sup_rel)
    findings.extend(sup.problems)
    if not args.no_suppressions:
        sup.apply(findings)
        if only is None:
            findings.extend(sup.stale_entries())
    else:
        for f in findings:
            if f.suppression == "baseline":
                f.suppressed = False
                f.suppression = ""

    for line in render_text(findings, args.show_suppressed):
        print(line)

    if args.json:
        target = args.json
        if target.startswith("out="):
            target = target[4:]
        if not target:
            print("frfc-analyzer: --json needs out=<file>",
                  file=sys.stderr)
            return EXIT_USAGE
        out_path = Path(target)
        if not out_path.is_absolute():
            out_path = Path.cwd() / out_path
        out_path.write_text(
            render_sarif(findings, RULE_DOCS, __version__),
            encoding="utf-8")

    active = [f for f in findings if not f.suppressed]
    suppressed = len(findings) - len(active)
    if active:
        print("frfc-analyzer: %d finding(s) (%d suppressed) — "
              "%d files" % (len(active), suppressed, len(units)),
              file=sys.stderr)
        return EXIT_FINDINGS
    print("frfc-analyzer: clean (%d files, %d rule families, "
          "%d suppressed)"
          % (len(units), len(FAMILIES if not only else only),
             suppressed), file=sys.stderr)
    return EXIT_CLEAN
