#!/usr/bin/env python3
"""Golden test: committed schemas must regenerate byte-identically.

Re-harvests docs/config_schema.json and docs/metric_schema.json from
the current tree (same parser as the analyzer CLI) and
byte-compares against the committed files, without writing anything.
A mismatch means someone changed config/metric surface without
running:

    python3 -m frfc_analyzer --compdb build/compile_commands.json \
        --write-schemas
"""

import argparse
import sys
from pathlib import Path


def main(argv) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--compdb", required=True)
    args = parser.parse_args(argv)
    repo = Path(args.root).resolve()
    sys.path.insert(0, str(repo / "tools"))

    from frfc_analyzer import cli, compdb
    from frfc_analyzer.ir import Program
    from frfc_analyzer.rules import config_schema, metric_paths

    try:
        compdb.load(Path(args.compdb), repo)
    except compdb.CompDbError as exc:
        print("schema golden: %s" % exc, file=sys.stderr)
        return 1

    program = Program(cli._parse_internal(repo), str(repo))

    ok = True
    pairs = (
        ("docs/config_schema.json",
         config_schema.build_schema(config_schema.harvest(program))),
        ("docs/metric_schema.json",
         metric_paths.build_schema(metric_paths.harvest(program))),
    )
    for rel, generated in pairs:
        path = repo / rel
        committed = path.read_text(encoding="utf-8") \
            if path.is_file() else ""
        if committed != generated:
            ok = False
            print("schema golden: %s is stale (regenerate with "
                  "--write-schemas)" % rel, file=sys.stderr)
    if ok:
        print("schema golden: both schemas regenerate byte-identically")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
