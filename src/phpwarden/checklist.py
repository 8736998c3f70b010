"""Vulnerability checklist: the sink / source / sanitizer tables that drive
the scanner.

File format (see data/checklist.txt for the shipped default):

    # comment
    <Category>: name, name, ...             shorthand for <Category>.sinks
    <Category>.sinks: name, name, ...
    <Category>.sanitizers: name, name, ...
    <Category>.sources: name, name, ...

Sources are global (tainted data is tainted no matter where it flows); the
category prefix on a sources line only groups the file for readability.
Source entries may be function names or $-prefixed superglobals.
"""

from __future__ import annotations

import os

CATEGORIES = (
    "CrossSiteScripting",
    "SqlInjection",
    "CommandInjection",
    "CodeInjection",
    "FileInclusion",
    "FileManipulation",
)

DISPLAY_NAMES = {
    "CrossSiteScripting": "Cross-Site Scripting",
    "SqlInjection": "SQL Injection",
    "CommandInjection": "Command Injection",
    "CodeInjection": "Code Injection",
    "FileInclusion": "File Inclusion",
    "FileManipulation": "File Manipulation",
}


class ChecklistError(ValueError):
    pass


class Checklist:
    """The tables, and a name -> categories index of the sinks and of the
    sanitizers built from them once, at construction.  The indexes are keyed
    by lowercase name, for a caller that has lowered the name already."""

    __slots__ = ("sinks", "sources", "sanitizers", "sink_index", "sanitizer_index")

    def __init__(self, sinks: dict[str, frozenset[str]] | None = None, sources: frozenset[str] = frozenset(),
                 sanitizers: dict[str, frozenset[str]] | None = None) -> None:
        self.sinks = {} if sinks is None else sinks
        self.sources = sources
        self.sanitizers = {} if sanitizers is None else sanitizers
        self.sink_index = _index(self.sinks)
        self.sanitizer_index = {name: frozenset(cats) for name, cats in _index(self.sanitizers).items()}


def _index(table: dict[str, frozenset[str]]) -> dict[str, tuple[str, ...]]:
    """Name -> the categories of table that list it, in canonical order."""
    index: dict[str, tuple[str, ...]] = {}
    for category in CATEGORIES:
        for name in table.get(category, ()):
            index[name] = index.get(name, ()) + (category,)
    return index


def load_checklist(text: str) -> Checklist:
    """Parse checklist text.  Raises ChecklistError on malformed lines,
    unknown categories, sink/sanitizer overlap, or an empty checklist."""
    sinks: dict[str, set[str]] = {}
    sanitizers: dict[str, set[str]] = {}
    sources: set[str] = set()
    saw_entry = False

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if ":" not in line:
            raise ChecklistError(f"line {lineno}: expected '<Category>[.kind]: names'")
        head, _, tail = line.partition(":")
        head = head.strip()
        if "." in head:
            category, _, kind = head.partition(".")
        else:
            category, kind = head, "sinks"
        category = category.strip()
        kind = kind.strip()
        if category not in CATEGORIES:
            raise ChecklistError(f"line {lineno}: unknown category {category!r}")
        if kind not in ("sinks", "sanitizers", "sources"):
            raise ChecklistError(f"line {lineno}: unknown entry kind {kind!r}")
        names = [n.strip() for n in tail.split(",")]
        names = [n for n in names if n]
        if not names:
            raise ChecklistError(f"line {lineno}: empty {kind} list for {category}")
        saw_entry = True
        lowered = {n if n.startswith("$") else n.lower() for n in names}
        if kind == "sinks":
            sinks.setdefault(category, set()).update(lowered)
        elif kind == "sanitizers":
            sanitizers.setdefault(category, set()).update(lowered)
        else:
            sources.update(lowered)

    if not saw_entry:
        raise ChecklistError("checklist defines no categories")

    for category in CATEGORIES:
        overlap = sinks.get(category, set()) & sanitizers.get(category, set())
        if overlap:
            raise ChecklistError(
                f"{category}: {sorted(overlap)} listed as both sink and sanitizer"
            )

    return Checklist(
        sinks={c: frozenset(v) for c, v in sinks.items()},
        sources=frozenset(sources),
        sanitizers={c: frozenset(v) for c, v in sanitizers.items()},
    )


def default_checklist() -> Checklist:
    """The checklist shipped with the package."""
    with open(os.path.join(os.path.dirname(__file__), "data", "checklist.txt"), encoding="utf-8") as fh:
        return load_checklist(fh.read())
