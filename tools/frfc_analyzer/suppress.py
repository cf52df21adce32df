"""Baseline suppression file handling.

Format, one entry per line (``#`` comments, blank lines ignored)::

    <rule-id>  <path>[:<line>]  --  <justification>

``path`` is repo-relative and may use ``*`` globs. The justification
is mandatory: a suppression without one is itself reported as a
finding (``suppression.unjustified``), so the baseline stays auditable.
Entries that match nothing are reported too (``suppression.stale``),
which is how baselined findings get cleaned up when the underlying
code is fixed.

Inline suppressions (``// frfc-analyzer: allow(<rule>): <reason>`` on
the finding's line) are handled by the frontend, which records them in
TranslationUnit.allows.
"""

import fnmatch
from pathlib import Path
from typing import List, Optional, Tuple

from .ir import Finding


class Entry:
    def __init__(self, rule: str, path: str, line: Optional[int],
                 reason: str, source_line: int):
        self.rule = rule
        self.path = path
        self.line = line
        self.reason = reason
        self.source_line = source_line
        self.hits = 0

    def matches(self, f: Finding) -> bool:
        if self.rule != f.rule and not f.rule.startswith(
                self.rule + "."):
            return False
        if self.line is not None and self.line != f.line:
            return False
        return fnmatch.fnmatchcase(f.file, self.path)


class Suppressions:
    def __init__(self, entries: List[Entry], path: str,
                 problems: List[Finding]):
        self.entries = entries
        self.path = path
        self.problems = problems  # malformed/unjustified entries

    def apply(self, findings: List[Finding]) -> None:
        for f in findings:
            for e in self.entries:
                if e.matches(f):
                    e.hits += 1
                    f.suppressed = True
                    f.suppression = "baseline"
                    break

    def stale_entries(self) -> List[Finding]:
        return [Finding(rule="suppression.stale", file=self.path,
                        line=e.source_line,
                        message="suppression matches no finding: %s %s"
                                % (e.rule,
                                   e.path + (":%d" % e.line
                                             if e.line else "")))
                for e in self.entries if e.hits == 0]


def load(path: Path, repo_rel: str) -> Suppressions:
    entries: List[Entry] = []
    problems: List[Finding] = []
    if not path.is_file():
        return Suppressions(entries, repo_rel, problems)
    for num, raw in enumerate(
            path.read_text(encoding="utf-8").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        head, sep, reason = line.partition("--")
        reason = reason.strip()
        fields = head.split()
        if len(fields) != 2:
            problems.append(Finding(
                rule="suppression.malformed", file=repo_rel, line=num,
                message="expected '<rule> <path>[:<line>] -- "
                        "<justification>', got: " + line))
            continue
        rule, target = fields
        file_part, colon, line_part = target.rpartition(":")
        lineno: Optional[int] = None
        if colon and line_part.isdigit():
            lineno = int(line_part)
        else:
            file_part = target
        if not sep or not reason:
            problems.append(Finding(
                rule="suppression.unjustified", file=repo_rel,
                line=num,
                message="suppression for %s lacks a justification "
                        "('-- <reason>')" % rule))
            continue
        entries.append(Entry(rule=rule, path=file_part, line=lineno,
                             reason=reason, source_line=num))
    return Suppressions(entries, repo_rel, problems)
