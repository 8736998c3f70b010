"""Sink-driven taint scanner for PHP token streams.

The analysis is deliberately recall-biased: variable resolution is
flow-insensitive (assignments accumulate; redefinition never clears taint)
and variables that cannot be resolved to a definition are assumed tainted.
A sink call produces a finding only when at least one argument carries
taint that no category-appropriate sanitizer has cleared.  A construct
sink (echo, print, include, <?= ...) takes the whole expression up to the
statement end, so  echo ('a') . $x;  is checked for $x as well.

One walker, _arg_spans, splits the arguments of sink calls and includes and
finds an assignment's right-hand side (its first span).  A sink call's
arguments are evaluated once; each of the sink's categories then drops the
taints sanitized for it.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterator

from .checklist import Checklist
from .lexer import (CLOSE_TAG, COMMENT, IDENTIFIER, INLINE_HTML, KEYWORD, OPEN_TAG, OPERATOR,
                    PUNCTUATION, STRING, VARIABLE, Token, TokenStream, split_lines, tokenize)

# Language constructs that take arguments without parentheses.
CONSTRUCT_SINKS = frozenset({
    "echo", "print", "include", "include_once", "require", "require_once",
    "die", "exit",
})

INCLUDE_KEYWORDS = frozenset({"include", "include_once", "require", "require_once"})

ASSIGN_OPS = frozenset({"=", ".=", "+=", "-=", "*=", "/=", "%=", "??=", "**=", "&=", "|=", "^="})

_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", "v": "\v", "f": "\f",
            "\\": "\\", "'": "'", '"': '"', "$": "$", "`": "`", "0": "\0"}


@dataclass(frozen=True)
class TaintInfo:
    source_kind: str          # "superglobal" | "source function" | "unresolved"
    source_name: str
    line: int
    sanitized_for: frozenset[str] = frozenset()


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


@dataclass
class Finding:
    number: int
    file: str
    line: int
    line_text: str
    category: str
    children: tuple[TaintedParam, ...]

    def key(self) -> tuple:
        return (self.file, self.line, self.category, self.children)


class ScanContext:
    """Mutable scan state: variable bindings, scope registers, include stack.

    declared_variables holds file-scope bindings; dependency_stack carries
    one frame per open function body.  Both registers pair with braces, so
    in_function/in_class are false once a file scan completes.

    include_cache maps the absolute path of each include target already
    read to its (tokens, lines), or to the OSError its read raised;
    scan_project shares one across its pages.
    """

    def __init__(self, include_cache: dict[str, tuple[TokenStream, list[str]] | OSError] | None = None) -> None:
        self.declared_variables: dict[str, list[TaintInfo]] = {}
        self.dependency_stack: list[dict[str, list[TaintInfo]]] = []
        self.file_stack: list[str] = []
        self.diagnostics: list[str] = []
        self.include_cache = {} if include_cache is None else include_cache
        self._scopes: list[str] = []  # brace kinds: function | class | block

    @property
    def in_function(self) -> bool:
        return "function" in self._scopes

    @property
    def in_class(self) -> bool:
        return "class" in self._scopes

    def push_scope(self, kind: str) -> None:
        self._scopes.append(kind)
        if kind == "function":
            self.dependency_stack.append({})

    def pop_scope(self) -> None:
        if not self._scopes:
            return
        kind = self._scopes.pop()
        if kind == "function" and self.dependency_stack:
            self.dependency_stack.pop()

    def current_frame(self) -> dict[str, list[TaintInfo]]:
        if self.dependency_stack:
            return self.dependency_stack[-1]
        return self.declared_variables

    def lookup(self, name: str) -> list[TaintInfo] | None:
        for frame in reversed(self.dependency_stack):
            if name in frame:
                return frame[name]
        return self.declared_variables.get(name)

    def assign(self, name: str, taints: list[TaintInfo]) -> None:
        frame = self.current_frame()
        bound = frame.get(name)
        if bound is None:
            frame[name] = list(taints)
            return
        for t in taints:
            if t not in bound:
                bound.append(t)


def string_value(token: Token) -> str:
    """Literal value of a quoted string token (escapes resolved)."""
    lex = token.lexeme
    if not lex or lex[0] not in "'\"`":
        return lex
    quote = lex[0]
    body = lex[1:-1] if lex.endswith(quote) and len(lex) >= 2 else lex[1:]
    out: list[str] = []
    i = 0
    while i < len(body):
        ch = body[i]
        if ch == "\\" and i + 1 < len(body):
            nxt = body[i + 1]
            if quote == "'":
                out.append(nxt if nxt in ("\\", "'") else ch + nxt)
            else:
                out.append(_ESCAPES.get(nxt, ch + nxt))
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def _resolve_name(name: str, line: int, ctx: ScanContext, checklist: Checklist,
                  extra: frozenset[str]) -> list[tuple[str, TaintInfo]]:
    # a variable is a superglobal source when the checklist lists its
    # $-prefixed name; function sources never start with $
    if name in checklist.sources:
        return [(name, TaintInfo("superglobal", name, line, extra))]
    bound = ctx.lookup(name)
    if bound is None:
        return [(name, TaintInfo("unresolved", name, line, extra))]
    return [(name, replace(ti, sanitized_for=ti.sanitized_for | extra)) for ti in bound]


def _eval_span(tokens: list[Token], lo: int, hi: int, ctx: ScanContext,
               checklist: Checklist) -> list[tuple[str, TaintInfo]]:
    """Taint evaluation of an expression span.  Returns (label, taint)
    pairs; sanitizer calls mark everything inside their parentheses as
    clean for the sanitizer's categories."""
    results: list[tuple[str, TaintInfo]] = []
    # cleared[-1]: categories cleared by every sanitizer call open here
    cleared: list[frozenset[str]] = [frozenset()]
    pending: frozenset[str] = frozenset()
    i = lo
    while i < hi:
        t = tokens[i]
        current = cleared[-1]
        if t.kind is PUNCTUATION:
            if t.lexeme == "(":
                cleared.append(current | pending)
                pending = frozenset()
            elif t.lexeme == ")":
                if len(cleared) > 1:
                    cleared.pop()
        elif t.kind in (IDENTIFIER, KEYWORD):
            nxt = tokens[i + 1] if i + 1 < hi else None
            if nxt is not None and nxt.kind is PUNCTUATION and nxt.lexeme == "(":
                cats = checklist.sanitizer_categories(t.lexeme)
                if cats:
                    pending = cats
                if checklist.is_source_function(t.lexeme):
                    results.append(
                        (t.lexeme, TaintInfo("source function", t.lexeme, t.line, current))
                    )
        elif t.kind is VARIABLE:
            results.extend(_resolve_name(t.lexeme, t.line, ctx, checklist, current))
        elif t.kind is STRING and t.interpolations:
            for name in t.interpolations:
                results.extend(_resolve_name(name, t.line, ctx, checklist, current))
        i += 1
    return results


def _arg_spans(tokens: list[Token], start: int, in_parens: bool) -> Iterator[tuple[int, int]]:
    """Comma-separated spans from start up to the closer of the enclosing
    group, yielded as found.  Outside parentheses a depth-0 ; or any ?>
    also ends the list, as for an assignment's right-hand side or
    echo $a, $b; ."""
    depth = 0
    i = start
    while i < len(tokens):
        t = tokens[i]
        if t.kind is PUNCTUATION:
            if t.lexeme in "([{":
                depth += 1
            elif t.lexeme in ")]}":
                if depth == 0:
                    break
                depth -= 1
            elif t.lexeme == "," and depth == 0:
                yield start, i
                start = i + 1
            elif t.lexeme == ";" and depth == 0 and not in_parens:
                break
        elif t.kind is CLOSE_TAG and not in_parens:
            break
        i += 1
    if i > start:
        yield start, i


def _walk(stream: TokenStream, lines: list[str], display_path: str,
          ctx: ScanContext, checklist: Checklist) -> list[Finding]:
    tokens = stream.tokens
    findings: list[Finding] = []
    sink_names = checklist.all_sink_names()
    pending_scope: str | None = None
    prev_significant: Token | None = None
    i = 0

    def line_text(n: int) -> str:
        return lines[n - 1] if 1 <= n <= len(lines) else ""

    def emit(call_site: int, name: str) -> None:
        # arguments: a call's parenthesized list or, for a construct like
        # echo (even one followed by a parenthesis), the expression up to
        # the statement end; evaluated once, then filtered per category
        if name in CONSTRUCT_SINKS:
            spans = _arg_spans(tokens, call_site + 1, False)
        else:  # a call: the name is followed by (
            spans = _arg_spans(tokens, call_site + 2, True)
        taints = [taint for lo, hi in spans for taint in _eval_span(tokens, lo, hi, ctx, checklist)]
        tok = tokens[call_site]
        for category in checklist.sink_categories(name):
            children = dict.fromkeys(
                TaintedParam(label, ti.source_kind, ti.source_name, ti.line)
                for label, ti in taints if category not in ti.sanitized_for)
            if children:
                findings.append(Finding(
                    number=0,
                    file=display_path,
                    line=tok.line,
                    line_text=line_text(tok.line),
                    category=category,
                    children=tuple(children),
                ))

    while i < len(tokens):
        t = tokens[i]
        if t.kind is COMMENT:
            i += 1
            continue

        if t.kind is OPEN_TAG and t.lexeme.startswith("<?="):
            # <?= expr ?> is an echo
            emit(i, "echo")

        elif t.kind is KEYWORD:
            kw = t.lexeme.lower()
            if kw in ("function", "fn"):
                pending_scope = "function"
            elif kw in ("class", "interface", "trait"):
                pending_scope = "class"
            elif kw in INCLUDE_KEYWORDS:
                _handle_include(tokens, i, ctx, checklist, findings, display_path)

        if t.kind is PUNCTUATION:
            if t.lexeme == "{":
                ctx.push_scope(pending_scope or "block")
                pending_scope = None
            elif t.lexeme == "}":
                ctx.pop_scope()
            elif t.lexeme == ";":
                pending_scope = None
        elif t.kind is OPERATOR and t.lexeme == "=>":
            pending_scope = None

        if t.kind is VARIABLE:
            nxt = tokens[i + 1] if i + 1 < len(tokens) else None
            if nxt is not None and nxt.kind is OPERATOR and nxt.lexeme in ASSIGN_OPS:
                # the right-hand side is the first span; taking only that
                # one keeps  f($a = 1, $b = 2, ...)  linear
                lo, hi = next(_arg_spans(tokens, i + 2, False), (i + 2, i + 2))
                ctx.assign(t.lexeme, [ti for _, ti in _eval_span(tokens, lo, hi, ctx, checklist)])

        if t.kind in (IDENTIFIER, KEYWORD):
            name = t.lexeme.lower()
            if name in sink_names:
                is_definition = (
                    prev_significant is not None
                    and prev_significant.kind is KEYWORD
                    and prev_significant.lexeme.lower() == "function"
                )
                nxt = tokens[i + 1] if i + 1 < len(tokens) else None
                call_style = (
                    nxt is not None
                    and nxt.kind is PUNCTUATION
                    and nxt.lexeme == "("
                )
                construct_style = t.kind is KEYWORD and name in CONSTRUCT_SINKS
                if not is_definition and (call_style or construct_style):
                    emit(i, name)

        if t.kind not in (COMMENT, INLINE_HTML):
            prev_significant = t
        i += 1

    return findings


def _handle_include(tokens: list[Token], keyword_idx: int, ctx: ScanContext,
                    checklist: Checklist, findings: list[Finding],
                    display_path: str) -> None:
    """Follow include/require with a string-literal argument.  Dynamic
    includes are left to the FileInclusion sink check."""
    spans = list(_arg_spans(tokens, keyword_idx + 1, False))
    if len(spans) != 1:
        return
    lo, hi = spans[0]
    span = [t for t in tokens[lo:hi]
            if not (t.kind is PUNCTUATION and t.lexeme in "()")]
    if len(span) != 1 or span[0].kind is not STRING:
        return
    if span[0].interpolations:
        return
    rel = string_value(span[0])
    # the target keeps the includer's path form (relative or absolute), so
    # its findings match those of its own direct scan
    target = os.path.normpath(os.path.join(os.path.dirname(display_path), rel))
    if not os.path.isfile(target):
        ctx.diagnostics.append(f"{display_path}: include target not found: {rel}")
        return
    if os.path.abspath(target) in ctx.file_stack:
        ctx.diagnostics.append(f"{display_path}: include cycle cut at {rel}")
        return
    findings.extend(scan_file(target, checklist, ctx))


def scan_file(path: str | os.PathLike, checklist: Checklist,
              ctx: ScanContext | None = None) -> list[Finding]:
    """Scan one PHP file, following string-literal includes.  Returns
    findings in discovery order; a fresh (top-level) scan numbers them
    1..n.  A file reached through an include is read and lexed once per
    ctx.include_cache and walked in the includer's context each time; a
    failed read is noted once as an include target and again by the
    file's own scan."""
    top_level = ctx is None
    if ctx is None:
        ctx = ScanContext()
    abspath = os.path.abspath(path)
    lexed = ctx.include_cache.get(abspath)
    if lexed is None:
        try:
            source = Path(path).read_bytes().decode("latin-1")
        except OSError as exc:
            lexed = exc
        else:
            lexed = tokenize(source, str(path)), split_lines(source)
        if ctx.file_stack:  # reached through an include
            ctx.include_cache[abspath] = lexed
    elif isinstance(lexed, OSError) and ctx.file_stack:
        return []  # noted when this include target first failed
    if isinstance(lexed, OSError):
        ctx.diagnostics.append(f"skipped {path}: {lexed}")
        return []
    stream, lines = lexed
    ctx.file_stack.append(abspath)
    try:
        findings = _walk(stream, lines, str(path), ctx, checklist)
    finally:
        ctx.file_stack.pop()
    if top_level:
        for n, f in enumerate(findings, start=1):
            f.number = n
    return findings


@dataclass
class ScanResult:
    findings: list[Finding]
    files_scanned: int
    elapsed: float
    diagnostics: list[str] = field(default_factory=list)


def scan_project(root: str | os.PathLike, checklist: Checklist) -> ScanResult:
    """Scan every *.php file under root (recursive, lexicographic order).

    Findings discovered both via include-following and via a direct file
    scan are reported once; numbering is global across the project.
    """
    started = time.perf_counter()
    root_path = Path(root)
    files = sorted(root_path.rglob("*.php"), key=lambda p: p.relative_to(root_path).as_posix())
    findings: list[Finding] = []
    seen: set[tuple] = set()
    diagnostics: list[str] = []
    include_cache: dict[str, tuple[TokenStream, list[str]] | OSError] = {}
    scanned = 0
    for php_file in files:
        ctx = ScanContext(include_cache)
        file_findings = scan_file(php_file, checklist, ctx)
        # a page whose own read failed stops at that one diagnostic; one
        # that failed to read an include target was still scanned
        if not ctx.diagnostics or not ctx.diagnostics[0].startswith(f"skipped {php_file}:"):
            scanned += 1
        diagnostics.extend(ctx.diagnostics)
        for f in file_findings:
            if f.key() not in seen:
                seen.add(f.key())
                findings.append(f)
    for n, f in enumerate(findings, start=1):
        f.number = n
    return ScanResult(
        findings=findings,
        files_scanned=scanned,
        elapsed=time.perf_counter() - started,
        diagnostics=diagnostics,
    )
