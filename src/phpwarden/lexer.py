"""Token-level lexer for PHP source files.

The scanner downstream works on raw token streams, so this lexer favours
totality over strictness: any byte sequence produces a token stream, and
problems (unterminated strings, stray characters) are reported as
diagnostics instead of exceptions.  Lines are 1-based and LF, CR and CRLF
are all treated as line terminators.

PHP mode is one compiled pattern with a named alternative per token class
(the "Writing a Tokenizer" recipe of the re module docs).  The pattern skips
the whitespace before a token itself, so each token costs one match, and the
lexer walks the matches with one finditer, dispatching on the index of the
group that matched: a punctuation, variable, operator, number, string or
comment token is its matched text, a name is a keyword or an identifier,
and only the rare groups (other strings, close tags, unterminated forms,
stray characters) take a longer path.  A token's line comes from a cursor
over the line table, which is searched only when a token starts past the
current line's end.  Only a heredoc needs a second, label-specific search
for its terminator: a line of optional indentation and the label, followed
by any character that cannot continue a name (PHP 7.3's flexible closer),
so  [<<<EOT ... EOT];  ends at EOT.  A # starts a line comment unless a [
follows it: PHP 8 reads #[ as the start of an attribute, so it is lexed as
a # operator and the [ group.  The stream holds its tokens as parallel
lists of kinds, lexemes and lines, so a token costs three appends and no
object; Token is only the value type of the stream's tokens view.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from collections import namedtuple
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
    "~", "?", ":", "@", "$", "\\", "#",
)

_NAME = r"[A-Za-z_\x80-\xff][A-Za-z0-9_\x80-\xff]*"

# PHP-mode token classes as (group, kind, pattern), tried in order after the
# whitespace before them: the first alternative that matches wins.
# Punctuation, the most common class, goes first, since no other class
# starts with one of its characters.  Stray characters (kind None) make no
# token; "unexpected" takes no whitespace, so a whitespace-only tail is no
# match at all.  A "name" is a keyword or an identifier.  The "open_*"
# groups are the unterminated forms: they run to the end of input and carry
# a diagnostic.  A # that the comment group leaves, the # of #[, is an
# operator.
_PHP_TOKENS = (
    ("punctuation", PUNCTUATION, r"[()\[\]{};,]"),
    ("close_tag", CLOSE_TAG, r"\?>"),
    ("comment", COMMENT, r"(?://|\#(?!\[))(?:[^\r\n?]|\?(?!>))*|/\*[\s\S]*?\*/"),
    ("open_comment", COMMENT, r"/\*[\s\S]*"),
    ("variable", VARIABLE, r"\$" + _NAME),
    ("string", STRING,
     r"'[^'\\]*(?:\\[\s\S][^'\\]*)*'|`[^`\\]*(?:\\[\s\S][^`\\]*)*`"),
    ("dq_string", STRING, r'"[^"\\]*(?:\\[\s\S][^"\\]*)*"'),
    ("open_string", STRING, r"['`][\s\S]*"),
    ("open_dq_string", STRING, r'"[\s\S]*'),
    ("heredoc", STRING,
     r"<<<[ \t]*(?P<quote>['\"]?)(?P<label>" + _NAME + r")(?P=quote)[ \t]*(?:\r\n|\r|\n)"),
    ("number", NUMBER,
     r"0[xX][0-9a-fA-F_]+|0[bB][01_]+|[0-9][0-9_]*(?:\.[0-9_]+)?(?:[eE][+-]?[0-9]+)?"
     r"|\.[0-9][0-9_]*(?:[eE][+-]?[0-9]+)?"),
    ("name", IDENTIFIER, _NAME),
    ("operator", OPERATOR, "|".join(map(re.escape, OPERATORS))),
    ("unexpected", None, r"[^ \t\r\n]"),
)
_PHP_RE = re.compile(
    "[ \t\r\n]*(?:" + "|".join(f"(?P<{group}>{pattern})" for group, _, pattern in _PHP_TOKENS) + ")"
)
_KINDS = {group: kind for group, kind, _ in _PHP_TOKENS}
_GROUP_AT = {index: group for group, index in _PHP_RE.groupindex.items()}
# By group index: the kind of each group whose token is its matched text and
# nothing more, None for the others.
_PLAIN = {_PHP_RE.groupindex[group]: _KINDS[group]
          for group in ("punctuation", "variable", "operator", "number", "string", "comment")}
_PLAIN_KINDS = tuple(_PLAIN.get(index) for index in range(_PHP_RE.groups + 1))
_NAME_INDEX = _PHP_RE.groupindex["name"]
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


class Token:
    """One token, equal to and hashed as another with the same fields.
    interpolations holds the variable names referenced by "$x" / "{$x}" /
    "${x}" interpolation, for double-quoted strings and heredocs only.
    Only TokenStream.tokens builds one; a scan reads the stream's lists."""

    __slots__ = ("kind", "lexeme", "line", "interpolations")

    def __init__(self, kind: TokenKind, lexeme: str, line: int,
                 interpolations: tuple[str, ...] = ()) -> None:
        self.kind = kind
        self.lexeme = lexeme
        self.line = line
        self.interpolations = interpolations

    def _fields(self) -> tuple:
        return self.kind, self.lexeme, self.line, self.interpolations

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Token:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:  # keeps pytest diffs readable
        return f"Token({self.kind.value}, {self.lexeme!r}, line={self.line})"


LexDiagnostic = namedtuple("LexDiagnostic", "message line")


class TokenStream:
    """A file's tokens as parallel lists: token i is kinds[i], lexemes[i]
    (an exact substring of the source) and lines[i] (1-based), and
    interpolations maps i to the names token i interpolates, for the
    double-quoted strings and heredocs that interpolate any.  Also the
    file's diagnostics, and its line table: line_ends holds the offset just
    past each line terminator, in order."""

    __slots__ = ("kinds", "lexemes", "lines", "interpolations", "diagnostics", "line_ends")

    def __init__(self, line_ends: list[int]) -> None:
        self.kinds: list[TokenKind] = []
        self.lexemes: list[str] = []
        self.lines: list[int] = []
        self.interpolations: dict[int, tuple[str, ...]] = {}
        self.diagnostics: list[LexDiagnostic] = []
        self.line_ends = line_ends

    @property
    def tokens(self) -> list[Token]:
        """The tokens as Token values, built anew on each read."""
        names = self.interpolations
        return [Token(kind, lexeme, line, names.get(i, ()))
                for i, (kind, lexeme, line) in enumerate(zip(self.kinds, self.lexemes, self.lines))]


def line_text(source: str, line_ends: list[int], line: int) -> str:
    """The text of 1-based line `line` of source, without its terminator;
    "" for a line source does not have.  line_ends is source's line table."""
    if not 1 <= line <= len(line_ends) + 1:
        return ""
    start = line_ends[line - 2] if line > 1 else 0
    end = line_ends[line - 1] if line <= len(line_ends) else len(source)
    return source[start:end].rstrip("\r\n")  # a line's text holds no CR or LF


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
    kinds, lexemes, lines, diagnostics = stream.kinds, stream.lexemes, stream.lines, stream.diagnostics
    add_kind, add_lexeme, add_line, plain_kinds = kinds.append, lexemes.append, lines.append, _PLAIN_KINDS
    # a token starting before next_end is on line `line`
    index = bisect_right(line_ends, pos)
    line, next_end = index + 1, line_ends[index] if index < len(line_ends) else len(src)
    while True:
        for m in _PHP_RE.finditer(src, pos):
            index = m.lastindex
            start, end = m.span(index)
            if start >= next_end:
                ends_before = bisect_right(line_ends, start)
                line = ends_before + 1
                next_end = line_ends[ends_before] if ends_before < len(line_ends) else len(src)
            kind = plain_kinds[index]
            if kind is not None:
                add_kind(kind)
                add_lexeme(src[start:end])
                add_line(line)
                continue
            lexeme = src[start:end]
            if index == _NAME_INDEX:
                add_kind(KEYWORD if lexeme.lower() in KEYWORDS else IDENTIFIER)
                add_lexeme(lexeme)
                add_line(line)
                continue
            group = _GROUP_AT[index]
            if group == "unexpected":
                diagnostics.append(LexDiagnostic(f"unexpected character {lexeme!r}", line))
                continue
            if group in _UNTERMINATED:
                diagnostics.append(LexDiagnostic(_UNTERMINATED[group], line))
            interpolations: tuple[str, ...] = ()
            if group == "dq_string":
                interpolations = extract_interpolations(src[start + 1 : end - 1])
            elif group == "open_dq_string":
                interpolations = extract_interpolations(src[start + 1 : end])
            elif group == "heredoc":
                # terminator: a line of optional indentation, then the label
                # and a character that cannot continue it (or the end)
                term = re.compile(
                    r"(?:\r\n|\r|\n)[ \t]*" + re.escape(m["label"]) + r"(?![A-Za-z0-9_\x80-\xff])"
                )
                t = term.search(src, end - 1)
                if t is None:
                    diagnostics.append(LexDiagnostic("unterminated heredoc", line))
                body_end, pos = (t.start(), t.end()) if t else (len(src), len(src))
                if m["quote"] != "'":
                    interpolations = extract_interpolations(src[end : body_end])
                lexeme = src[start:pos]
            if interpolations:
                stream.interpolations[len(kinds)] = interpolations
            add_kind(_KINDS[group])
            add_lexeme(lexeme)
            add_line(line)
            if group == "heredoc":
                break  # lex on after the terminator
            if group == "close_tag":
                return end
        else:
            return len(src)  # nothing but whitespace was left


def tokenize(source: str | bytes) -> TokenStream:
    """Tokenize PHP source.  Total: never raises on malformed input.

    Bytes are accepted as-is (decoded 1:1 so lexemes stay exact substrings
    of the input); text outside <?php ... ?> regions becomes InlineHtml.
    """
    if isinstance(source, bytes):
        source = source.decode("latin-1")
    # a token's line is 1 + the number of line terminators ending at or
    # before its start
    line_ends = [m.end() for m in _NEWLINE_RE.finditer(source)]
    stream = TokenStream(line_ends)
    kinds, lexemes, lines = stream.kinds, stream.lexemes, stream.lines
    pos = 0
    while pos < len(source):
        m = _OPEN_TAG_RE.search(source, pos)
        html_end = m.start() if m else len(source)
        if html_end > pos:
            kinds.append(INLINE_HTML)
            lexemes.append(source[pos:html_end])
            lines.append(bisect_right(line_ends, pos) + 1)
        if m is None:
            break
        kinds.append(OPEN_TAG)
        lexemes.append(m[0])
        lines.append(bisect_right(line_ends, m.start()) + 1)
        pos = _lex_php(source, m.end(), line_ends, stream)
    return stream
