"""Sink-driven taint scanner for PHP token streams.

The analysis is deliberately recall-biased: variable resolution is
flow-insensitive (assignments accumulate; redefinition never clears taint)
and variables that cannot be resolved to a definition are assumed tainted.
A sink call produces a finding only when at least one argument carries
taint that no category-appropriate sanitizer has cleared.  A construct
sink (echo, print, include, <?= ...) takes the whole expression up to the
statement end, so  echo ('a') . $x;  is checked for $x as well.

_walk reads a file's tokens once, with a stack of open nodes: groups ( [ {,
assignments' right-hand sides and construct sinks' expressions.  A read
resolves once, into the innermost node.  A closer ends the nodes above its
group and the group, a ; those above the innermost group, a , the
assignments and one-operand constructs on top, and ?> and the end of the
file every node.  Every construct but echo (and <?=, its short form) takes
one operand, so a , ends it as it ends an assignment, while echo's operands
are a comma list.  An ending node reports its sink's findings in the sink's
place, binds its target and hands its reads down, so each expression is
evaluated once.  So:

* a read sees the assignments whose right-hand side ended before it (PHP's
  left-to-right order), nested ones binding innermost first: in
  $b = mysql_query($b) . fgets($f);  the query's $b carries no fgets;
* in  f($x = print $a, $b)  print's operand, and so $x's right-hand side,
  end at the , and neither reads $b; in  echo $a = print $b, $c;  the ,
  ends print and the assignment, and echo reads $c as its next operand;
* on unbalanced input, ?> or the end of the file ends every open node, a
  sink call's arguments included.
"""

from __future__ import annotations

import os
import re
import time
from collections import namedtuple
from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path

from .checklist import Checklist
from .lexer import (CLOSE_TAG, COMMENT, IDENTIFIER, INLINE_HTML, KEYWORD, OPEN_TAG, OPERATOR,
                    PUNCTUATION, STRING, VARIABLE, Token, TokenStream, line_text, tokenize)

# Language constructs that take arguments without parentheses.
CONSTRUCT_SINKS = frozenset({
    "echo", "print", "include", "include_once", "require", "require_once",
    "die", "exit",
})

INCLUDE_KEYWORDS = frozenset({"include", "include_once", "require", "require_once"})
# include levels followed below a page; each costs three Python frames
# (scan_file, _walk, _handle_include), so a deeper chain would exhaust the stack
MAX_INCLUDE_DEPTH = 100

ASSIGN_OPS = frozenset({"=", ".=", "+=", "-=", "*=", "/=", "%=", "??=", "**=", "&=", "|=", "^="})

_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", "v": "\v", "f": "\f",
            "\\": "\\", "'": "'", '"': '"', "$": "$", "`": "`", "0": "\0"}
_BACKSLASH_RE = re.compile(r"\\(.)", re.S)  # a backslash and the character it escapes


# source_kind: "superglobal" | "source function" | "unresolved".  One is
# built for every read, and a namedtuple builds in about 0.6 of a frozen
# dataclass's time (0.73 against 1.26 us, timeit, 2-CPU x86-64 VM).
TaintInfo = namedtuple("TaintInfo", "source_kind source_name line sanitized_for",
                       defaults=(frozenset(),))


@dataclass(frozen=True)
class TaintedParam:
    """One tainted argument of a sink call: which variable (or call) carried
    the taint, where the taint originates, and the defining line."""

    variable: str
    source_kind: str
    source_name: str
    line: int

    def origin(self) -> str:
        if self.source_kind == "unresolved":
            return "unresolved"
        return f"{self.source_kind} {self.source_name}"


@dataclass(frozen=True)
class Finding:
    number: int
    file: str
    line: int
    line_text: str
    category: str
    children: tuple[TaintedParam, ...]

    def key(self) -> tuple:
        return (self.file, self.line, self.category, self.children)


# One walk of an include target: its findings (a tuple), the ScanContext
# snapshot it left, and the frozenset of absolute paths it entered through
# nested includes.
_Walk = namedtuple("_Walk", "findings exit entered")


class IncludeTarget:
    """A read include target: its source and tokens, and its walks keyed by
    display path and entering snapshot."""

    __slots__ = ("source", "stream", "walks")

    def __init__(self, source: str, stream: TokenStream) -> None:
        self.source = source
        self.stream = stream
        self.walks: dict[tuple, _Walk] = {}


class ScanContext:
    """Mutable scan state: variable bindings, scope registers, include stack.

    frames[0] holds file-scope bindings, and each open function body adds a
    frame; a name maps to a tuple of its taints.  _scopes holds, for each
    open brace, whether it opened a function body.  Both registers pair
    with braces, so no function scope is open once a file scan completes.

    include_cache maps the absolute path of each include target already
    read to its IncludeTarget, or to the OSError its read raised;
    scan_project shares one across its pages.  The walks it keeps hold for
    one checklist.
    """

    def __init__(self, include_cache: dict[str, IncludeTarget | OSError] | None = None) -> None:
        self.frames: list[dict[str, tuple[TaintInfo, ...]]] = [{}]
        self.file_stack: list[str] = []
        self.diagnostics: list[str] = []
        self.include_cache = {} if include_cache is None else include_cache
        self._scopes: list[bool] = []  # per open brace: whether it opened a function body
        self._entered: list[str] = []  # absolute path of every file scan_file entered

    def push_scope(self, function: bool) -> None:
        self._scopes.append(function)
        if function:
            self.frames.append({})

    def pop_scope(self) -> None:
        if self._scopes and self._scopes.pop():
            self.frames.pop()

    def snapshot(self) -> tuple:
        """Scopes and every frame's bindings, in order, as one hashable
        value that no later assignment changes."""
        return tuple(self._scopes), tuple(tuple(frame.items()) for frame in self.frames)

    def restore(self, snapshot: tuple) -> None:
        """Take the state a snapshot holds, in dicts of this context's own."""
        scopes, frames = snapshot
        self._scopes = list(scopes)
        self.frames = [dict(frame) for frame in frames]

    def lookup(self, name: str) -> tuple[TaintInfo, ...] | None:
        for frame in reversed(self.frames):
            if name in frame:
                return frame[name]
        return None

    def assign(self, name: str, taints: list[TaintInfo]) -> None:
        """Bind a new name to taints as given; a bound name gains each
        taint not yet bound, in order, once."""
        frame = self.frames[-1]
        bound = frame.get(name)
        if bound is None:
            frame[name] = tuple(taints)
        else:
            frame[name] = bound + tuple(t for t in dict.fromkeys(taints) if t not in bound)


def string_value(token: Token) -> str:
    """Literal value of a quoted string token (escapes resolved)."""
    lex = token.lexeme
    if not lex or lex[0] not in "'\"`":
        return lex
    quote = lex[0]
    body = lex[1:-1] if lex.endswith(quote) and len(lex) >= 2 else lex[1:]
    if quote == "'":  # only \\ and \' are escapes
        return _BACKSLASH_RE.sub(lambda m: m[1] if m[1] in "\\'" else m[0], body)
    return _BACKSLASH_RE.sub(lambda m: _ESCAPES.get(m[1], m[0]), body)


def _cleared(reads: list[tuple[str, TaintInfo]],
             categories: frozenset[str]) -> list[tuple[str, TaintInfo]]:
    """reads, each taint also sanitized for categories."""
    if not categories:
        return reads
    return [(label, TaintInfo(ti.source_kind, ti.source_name, ti.line, ti.sanitized_for | categories))
            for label, ti in reads]


def _resolve_name(name: str, line: int, ctx: ScanContext, checklist: Checklist,
                  extra: frozenset[str]) -> list[tuple[str, TaintInfo]]:
    # a variable is a superglobal source when the checklist lists its
    # $-prefixed name; function sources never start with $
    if name in checklist.sources:
        return [(name, TaintInfo("superglobal", name, line, extra))]
    bound = ctx.lookup(name)
    if bound is None:
        return [(name, TaintInfo("unresolved", name, line, extra))]
    return _cleared([(name, ti) for ti in bound], extra)


def _is_assigned(tokens: list[Token], j: int, hi: int, closers: dict[int, int | None]) -> bool:
    """Whether the variable before tokens[j] is the target of a plain =,
    itself or through a chain of [...] indexes and ->name properties.  The
    index expressions are left for the caller to read.  closers memoizes
    _match_brackets for one file, so no token is scanned twice."""
    while j < hi:
        t = tokens[j]
        if t.kind is OPERATOR:
            if t.lexeme != "->":
                return t.lexeme == "="
            if j + 1 >= hi or tokens[j + 1].kind not in (IDENTIFIER, KEYWORD):
                return False
            j += 2
        elif t.kind is PUNCTUATION and t.lexeme == "[":
            if j not in closers:
                _match_brackets(tokens, j, hi, closers)
            closer = closers[j]
            if closer is None:
                return False
            j = closer + 1
        else:
            return False
    return False


def _match_brackets(tokens: list[Token], j: int, hi: int, closers: dict[int, int | None]) -> None:
    """Record in closers the index of the ] that closes the [ at tokens[j],
    and of each [ inside it; None for one still open at hi."""
    opened: list[int] = []
    for k in range(j, hi):
        t = tokens[k]
        if t.kind is PUNCTUATION:
            if t.lexeme == "[":
                opened.append(k)
            elif t.lexeme == "]":
                closers[opened.pop()] = k
                if not opened:
                    return
    for k in opened:
        closers[k] = None


# A node on _walk's stack is (kind, reads, cleared, down, sink, target).
# Assignments, construct sinks and sink calls' groups collect their own
# (label, taint) reads; other groups read into the list below them, the
# root into none.  cleared: the categories of the sanitizer groups open up
# to the collecting node, which a read here is cleared for; down: what a
# collecting node's reads are cleared for as they pass below, None for a
# group that collects nothing.  sink: the (slot, token, name) that reports
# the reads; target: the variable bound.
_GROUP, _ASSIGN, _CONSTRUCT = "group", "assign", "construct"
_NO_CATEGORIES = frozenset()
_NO_CALL = (_NO_CATEGORIES, None)  # the categories and sink of a plain group


def _walk(stream: TokenStream, source: str, display_path: str,
          ctx: ScanContext, checklist: Checklist) -> list[Finding]:
    tokens, line_ends = stream.tokens, stream.line_ends
    count = len(tokens)
    # one list of findings per sink and per followed include, in the order
    # of their first tokens; a sink fills its own when its node ends
    slots: list[list[Finding]] = []
    nodes = [(_GROUP, None, frozenset(), None, None, None)]  # the root, which collects nothing
    closers: dict[int, int | None] = {}
    # keyed by lowercase name, as the names looked up here are
    sink_index, sanitizer_index, sources = checklist.sink_index, checklist.sanitizer_index, checklist.sources
    call = _NO_CALL  # what the ( after a call's name opens
    pending_function = ""  # function or fn, if the next { opens its body
    prev_significant: Token | None = None

    def open_node(kind: str, categories: frozenset[str] = frozenset(), sink: tuple | None = None,
                  target: str | None = None) -> None:
        """Push a node that collects its own reads."""
        if sink is not None:  # (token, name); a call's ( follows its name at once
            slots.append([])
            sink = (slots[-1], *sink)
        nodes.append((kind, [], frozenset(), nodes[-1][2] | categories, sink, target))

    def end_node() -> None:
        kind, reads, _, down, sink, target = nodes.pop()
        if down is None:  # a group, whose reads are already below
            return
        if sink is not None:
            slot, tok, name = sink
            text = line_text(source, line_ends, tok.line)
            # read once, then filtered per category
            for category in sink_index.get(name, ()):
                children = dict.fromkeys(
                    TaintedParam(label, ti.source_kind, ti.source_name, ti.line)
                    for label, ti in reads if category not in ti.sanitized_for)
                if children:
                    slot.append(Finding(0, display_path, tok.line, text, category, tuple(children)))
        if kind is _ASSIGN:
            ctx.assign(target, [ti for _, ti in reads])
        if nodes[-1][1] is not None:
            nodes[-1][1].extend(_cleared(reads, down))

    for i, t in enumerate(tokens):
        kind = t.kind
        if kind is PUNCTUATION:
            lexeme = t.lexeme
            if lexeme in "([{":
                categories, sink = call
                call = _NO_CALL
                if sink is None:  # a plain or sanitizer group, read into the node below
                    _, reads, cleared, _, _, _ = nodes[-1]
                    nodes.append((_GROUP, reads, cleared | categories, None, None, None))
                else:
                    open_node(_GROUP, categories, sink)
                if lexeme == "{":
                    ctx.push_scope(pending_function != "")
                    pending_function = ""
            elif lexeme == ",":  # ends the assignments and one-operand constructs on top
                while (nodes[-1][0] is _ASSIGN
                       or nodes[-1][0] is _CONSTRUCT and nodes[-1][4][2] != "echo"):
                    end_node()
            else:  # a closer or ;
                while nodes[-1][0] is not _GROUP:
                    end_node()
                if lexeme == ";":
                    pending_function = ""
                elif len(nodes) > 1:
                    if nodes[-1][3] is None:
                        nodes.pop()  # a group that collects nothing
                    else:
                        end_node()
                if lexeme == "}":
                    ctx.pop_scope()

        elif kind is VARIABLE:
            _, reads, cleared, _, _, _ = nodes[-1]
            if reads is not None and not _is_assigned(tokens, i + 1, count, closers):
                reads.extend(_resolve_name(t.lexeme, t.line, ctx, checklist, cleared))
            if i + 1 < count:
                nxt = tokens[i + 1]
                if nxt.kind is OPERATOR and nxt.lexeme in ASSIGN_OPS:
                    open_node(_ASSIGN, target=t.lexeme)

        elif kind is IDENTIFIER or kind is KEYWORD:
            name = t.lexeme.lower()
            if kind is KEYWORD:
                if name in ("function", "fn"):
                    # a member or constant so named ($o->fn, Foo::function) opens no body
                    if prev_significant is None or prev_significant.lexeme not in ("->", "?->", "::"):
                        pending_function = name
                elif name in INCLUDE_KEYWORDS:
                    slots.append(_handle_include(tokens, i, ctx, checklist, display_path))
            nxt = tokens[i + 1] if i + 1 < count else None
            paren = nxt is not None and nxt.kind is PUNCTUATION and nxt.lexeme == "("
            if paren:
                _, reads, cleared, _, _, _ = nodes[-1]
                if reads is not None and name in sources:
                    reads.append((t.lexeme, TaintInfo("source function", t.lexeme, t.line, cleared)))
                call = sanitizer_index.get(name, _NO_CATEGORIES), None
            if (name in sink_index and (paren or (kind is KEYWORD and name in CONSTRUCT_SINKS))
                    and not (prev_significant is not None and prev_significant.kind is KEYWORD
                             and prev_significant.lexeme.lower() == "function")):
                # a construct like echo (even one followed by a parenthesis)
                # takes the expression up to the statement end; a call, its
                # parenthesized arguments
                if name in CONSTRUCT_SINKS:
                    open_node(_CONSTRUCT, sink=(t, name))
                else:
                    call = call[0], (t, name)

        elif kind is COMMENT or kind is INLINE_HTML:
            continue

        elif kind is STRING:
            if t.interpolations:
                _, reads, cleared, _, _, _ = nodes[-1]
                if reads is not None:
                    for name in t.interpolations:
                        reads.extend(_resolve_name(name, t.line, ctx, checklist, cleared))

        elif kind is OPERATOR:
            if t.lexeme == "=>" and pending_function == "fn":  # fn's body, not a default's ['k' => 1]
                pending_function = ""

        elif kind is OPEN_TAG:
            if t.lexeme.startswith("<?="):  # <?= expr ?> is an echo
                open_node(_CONSTRUCT, sink=(t, "echo"))

        elif kind is CLOSE_TAG:
            while len(nodes) > 1:
                end_node()

        prev_significant = t

    while len(nodes) > 1:
        end_node()
    return [f for slot in slots for f in slot]


def _handle_include(tokens: list[Token], keyword_idx: int, ctx: ScanContext,
                    checklist: Checklist, display_path: str) -> list[Finding]:
    """Follow include/require whose argument is one plain string literal
    among parentheses, and return the target's findings.  Dynamic includes
    are left to the FileInclusion sink check."""
    depth, literal, j = 0, None, keyword_idx + 1
    while j < len(tokens):
        t = tokens[j]
        if t.kind is PUNCTUATION and t.lexeme == "(":
            depth += 1
        elif t.kind is PUNCTUATION and t.lexeme == ")" and depth:
            depth -= 1
        elif t.kind is STRING and literal is None:
            literal = t
        else:
            break
        j += 1

    def ends(k: int) -> bool:  # ?> or the end of the file, or a ; or closer outside parentheses
        return k >= len(tokens) or tokens[k].kind is CLOSE_TAG or (
            not depth and tokens[k].kind is PUNCTUATION and tokens[k].lexeme in ";)]}")

    # a trailing , starts no second argument when the list ends right after it
    if literal is None or literal.interpolations or not (
            ends(j) or not depth and tokens[j].lexeme == "," and ends(j + 1)):
        return []
    rel = string_value(literal)
    # the target keeps the includer's path form (relative or absolute), so
    # its findings match those of its own direct scan
    target = os.path.normpath(os.path.join(os.path.dirname(display_path), rel))
    if not os.path.isfile(target):
        ctx.diagnostics.append(f"{display_path}: include target not found: {rel}")
        return []
    absolute = os.path.abspath(target)
    if absolute in ctx.file_stack:
        ctx.diagnostics.append(f"{display_path}: include cycle cut at {rel}")
        return []
    if len(ctx.file_stack) > MAX_INCLUDE_DEPTH:
        ctx.diagnostics.append(f"{display_path}: include depth {MAX_INCLUDE_DEPTH} reached at {rel}")
        return []
    return scan_file(target, checklist, ctx, absolute)


def scan_file(path: str | os.PathLike, checklist: Checklist,
              ctx: ScanContext | None = None, abspath: str | None = None) -> list[Finding]:
    """Scan one PHP file, following string-literal includes.  Returns
    findings in discovery order; a fresh (top-level) scan numbers them
    1..n.  A file reached through an include is read and lexed once per
    ctx.include_cache, and walked once per distinct state it is entered
    with: a later entry in the same state replays that walk's findings and
    exit state, unless the walk noted anything or entered a file now on the
    include stack.  Findings are frozen and bindings are tuples, so a stored
    walk and its replays share them.  A failed read is noted once
    as an include target and again by the file's own scan; the lexer's
    diagnostics are noted once per lex, before the walk.  abspath is path's
    absolute form, if the caller has computed it."""
    top_level = ctx is None
    if ctx is None:
        ctx = ScanContext()
    path = os.fspath(path)
    if abspath is None:
        abspath = os.path.abspath(path)
    ctx._entered.append(abspath)
    target = ctx.include_cache.get(abspath)
    if target is None:
        try:
            with open(path, "rb") as fh:
                source = fh.read().decode("latin-1")
        except OSError as exc:
            target = exc
        else:
            target = IncludeTarget(source, tokenize(source))
            ctx.diagnostics.extend(f"{path}:{d.line}: {d.message}" for d in target.stream.diagnostics)
        if ctx.file_stack:  # reached through an include
            ctx.include_cache[abspath] = target
    elif isinstance(target, OSError) and ctx.file_stack:
        return []  # noted when this include target first failed
    if isinstance(target, OSError):
        ctx.diagnostics.append(f"skipped {path}: {target}")
        return []
    key = None
    if ctx.file_stack:
        key = path, ctx.snapshot()
        walk = target.walks.get(key)
        if walk is not None and walk.entered.isdisjoint(ctx.file_stack):
            ctx.restore(walk.exit)
            ctx._entered.extend(walk.entered)
            return list(walk.findings)
    entered, noted = len(ctx._entered), len(ctx.diagnostics)
    ctx.file_stack.append(abspath)
    try:
        findings = _walk(target.stream, target.source, path, ctx, checklist)
    finally:
        ctx.file_stack.pop()
    if key is not None and len(ctx.diagnostics) == noted:
        target.walks[key] = _Walk(tuple(findings), ctx.snapshot(), frozenset(ctx._entered[entered:]))
    if top_level:
        return _numbered(findings)
    return findings


class ScanResult:
    __slots__ = ("findings", "files_scanned", "elapsed", "diagnostics")

    def __init__(self, findings: list[Finding], files_scanned: int, elapsed: float,
                 diagnostics: list[str] | None = None) -> None:
        self.findings = findings
        self.files_scanned = files_scanned
        self.elapsed = elapsed
        self.diagnostics = [] if diagnostics is None else diagnostics


def scan_project(root: str | os.PathLike, checklist: Checklist) -> ScanResult:
    """Scan every *.php file under root (recursive, lexicographic order of
    the root-relative paths).

    Findings discovered both via include-following and via a direct file
    scan are reported once; numbering is global across the project.
    """
    started = time.perf_counter()
    top = str(Path(root))  # the root's display form: no trailing /, no ./
    prefix = "" if top == "." else os.path.join(top, "")
    kept: dict[tuple, Finding] = {}
    diagnostics: list[str] = []
    include_cache: dict[str, IncludeTarget | OSError] = {}
    scanned = 0
    for rel in _php_files(top):
        page = prefix + rel
        ctx = ScanContext(include_cache)
        file_findings = scan_file(page, checklist, ctx)
        # a page whose own read failed stops at that one diagnostic; one
        # that failed to read an include target was still scanned
        if not ctx.diagnostics or not ctx.diagnostics[0].startswith(f"skipped {page}:"):
            scanned += 1
        diagnostics.extend(ctx.diagnostics)
        for f in file_findings:
            kept.setdefault(f.key(), f)
    return ScanResult(
        findings=_numbered(kept.values()),
        files_scanned=scanned,
        elapsed=time.perf_counter() - started,
        diagnostics=diagnostics,
    )


def _numbered(findings: Iterable[Finding]) -> list[Finding]:
    """findings, numbered 1..n in order."""
    return [Finding(n, f.file, f.line, f.line_text, f.category, f.children)
            for n, f in enumerate(findings, start=1)]


def _php_files(top: str) -> list[str]:
    """The sorted top-relative paths of the entries under directory top
    whose names end in .php, as Path(top).rglob("*.php") finds them: a
    directory or a symlink so named is listed too (its read fails later if
    it holds no file), and a symlinked directory is not entered."""
    if not os.path.isdir(top):
        return []
    files: list[str] = []
    pending = [""]
    while pending:
        rel_dir = pending.pop()
        try:
            with os.scandir(os.path.join(top, rel_dir)) as entries:
                for entry in entries:
                    rel = rel_dir + entry.name
                    if rel.endswith(".php"):
                        files.append(rel)
                    if entry.is_dir(follow_symlinks=False):
                        pending.append(rel + "/")
        except PermissionError:
            continue
    files.sort()
    return files
