"""Independent findings oracle for the scanner equivalence tests.

Deliberately a different algorithm from the scanner: a regex-driven
fixpoint over whole source lines instead of a token walk.  It only
understands the restricted shape of the files in oracle_fixtures/ (one
statement per line, assignments with defs before uses, sanitizers wrapping
a whole expression) and is obviously correct there, which is the point.
"""

from __future__ import annotations

import re

from phpwarden.checklist import CATEGORIES, Checklist

_VAR_RE = re.compile(r"\$[A-Za-z_]\w*")
_ASSIGN_RE = re.compile(r"^\s*(\$[A-Za-z_]\w*)\s*=\s*(.+?);\s*$")
_CONSTRUCT_RE = re.compile(r"^\s*(echo|print|include|include_once|require|require_once)\b\s*(.*?);\s*$")
_CALL_RE = re.compile(r"^\s*([A-Za-z_]\w*)\s*\((.*)\)\s*;\s*$")
_WRAP_RE = re.compile(r"^\s*([A-Za-z_]\w*)\s*\((.*)\)\s*$")

ALL = frozenset(CATEGORIES)


def _superglobals(checklist: Checklist) -> frozenset[str]:
    return frozenset(n for n in checklist.sources if n.startswith("$"))


def _danger_of(expr: str, taint: dict[str, frozenset], checklist: Checklist) -> frozenset[str]:
    """Categories the expression is dangerous for."""
    wrap = _WRAP_RE.match(expr)
    if wrap:
        name = wrap.group(1).lower()
        sanitized = checklist.sanitizer_index.get(name)
        if sanitized:
            return _danger_of(wrap.group(2), taint, checklist) - sanitized
        if name in checklist.sources:
            return ALL
    danger: frozenset[str] = frozenset()
    for sg in _superglobals(checklist):
        if sg in expr:
            danger = ALL
    for m in re.finditer(r"\b([A-Za-z_]\w*)\s*\(", expr):
        if m.group(1).lower() in checklist.sources:
            danger = ALL
    for var in _VAR_RE.findall(expr):
        if var.startswith("$_"):
            continue
        danger = danger | taint.get(var, ALL)
    return danger


def expected_findings(source: str, checklist: Checklist) -> set[tuple[int, str]]:
    """(line, category) pairs the scanner must report for this file."""
    lines = source.splitlines()

    # fixpoint taint map: variable -> categories it is dangerous for
    taint: dict[str, frozenset] = {}
    for line in lines:
        m = _ASSIGN_RE.match(line)
        if m:
            taint.setdefault(m.group(1), frozenset())
    changed = True
    while changed:
        changed = False
        for line in lines:
            m = _ASSIGN_RE.match(line)
            if not m:
                continue
            var, rhs = m.group(1), m.group(2)
            merged = taint[var] | _danger_of(rhs, taint, checklist)
            if merged != taint[var]:
                taint[var] = merged
                changed = True

    findings: set[tuple[int, str]] = set()

    for lineno, line in enumerate(lines, start=1):
        m = _CONSTRUCT_RE.match(line)
        args = None
        name = None
        if m:
            name, args = m.group(1).lower(), m.group(2)
        else:
            m = _CALL_RE.match(line)
            if m:
                name, args = m.group(1).lower(), m.group(2)
        if name is None or args is None:
            continue
        for cat in checklist.sink_index.get(name, ()):
            if cat in _danger_of(args, taint, checklist):
                findings.add((lineno, cat))
    return findings
