"""Token-level lexer for PHP source files.

The scanner downstream works on raw token streams, so this lexer favours
totality over strictness: any byte sequence produces a token stream, and
problems (unterminated strings, stray characters) are reported as
diagnostics instead of exceptions.  Lines are 1-based and LF, CR and CRLF
are all treated as line terminators.
"""

from __future__ import annotations

import re
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

SUPERGLOBALS = frozenset({
    "$_GET", "$_POST", "$_REQUEST", "$_COOKIE", "$_SERVER", "$_FILES",
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

PUNCTUATION = frozenset("()[]{};,")

_OPEN_TAG_RE = re.compile(r"<\?(?:[pP][hH][pP](?![A-Za-z0-9_])|=)")
_NEWLINE_RE = re.compile(r"\r\n|\r|\n")
_IDENT_START = re.compile(r"[A-Za-z_\x80-\xff]")
_IDENT_CHARS = re.compile(r"[A-Za-z0-9_\x80-\xff]*")
_INTERP_RE = re.compile(r"\$([A-Za-z_][A-Za-z0-9_]*)|\{\$([A-Za-z_][A-Za-z0-9_]*)|\$\{([A-Za-z_][A-Za-z0-9_]*)\}")


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

    def __iter__(self):
        return iter(self.tokens)

    def __len__(self) -> int:
        return len(self.tokens)


def split_lines(source: str) -> list[str]:
    """Split on LF, CR or CRLF.  Shared by the scanner and report code so
    everyone agrees on what "line N" means."""
    return _NEWLINE_RE.split(source)


def extract_interpolations(body: str) -> tuple[str, ...]:
    """Variable names interpolated into a double-quoted string body.

    Escaped dollars (\\$) do not interpolate.  Names are returned with the
    leading $ and de-duplicated in first-appearance order.
    """
    names: list[str] = []
    i = 0
    while i < len(body):
        ch = body[i]
        if ch == "\\":
            i += 2
            continue
        if ch in ("$", "{"):
            m = _INTERP_RE.match(body, i)
            if m:
                name = "$" + (m.group(1) or m.group(2) or m.group(3))
                if name not in names:
                    names.append(name)
                i = m.end()
                continue
        i += 1
    return tuple(names)


class _Lexer:
    def __init__(self, source: str, path: str):
        self.src = source
        self.path = path
        self.pos = 0
        self.line = 1
        self.stream = TokenStream(source_path=path)

    # -- low level helpers -------------------------------------------------

    def _advance(self, end: int) -> str:
        """Consume source up to end, keeping the line counter in sync."""
        text = self.src[self.pos : end]
        self.line += len(_NEWLINE_RE.findall(text))
        self.pos = end
        return text

    def _emit(self, kind: TokenKind, end: int, line: int | None = None,
              interpolations: tuple[str, ...] = ()) -> None:
        start_line = self.line if line is None else line
        lexeme = self._advance(end)
        if lexeme:
            self.stream.tokens.append(Token(kind, lexeme, start_line, interpolations))

    def _diag(self, message: str, line: int | None = None) -> None:
        self.stream.diagnostics.append(LexDiagnostic(message, line or self.line))

    def _peek(self, offset: int = 0) -> str:
        i = self.pos + offset
        return self.src[i] if i < len(self.src) else ""

    # -- top level ---------------------------------------------------------

    def run(self) -> TokenStream:
        while self.pos < len(self.src):
            m = _OPEN_TAG_RE.search(self.src, self.pos)
            if m is None:
                self._emit(TokenKind.INLINE_HTML, len(self.src))
                break
            if m.start() > self.pos:
                self._emit(TokenKind.INLINE_HTML, m.start())
            self._emit(TokenKind.OPEN_TAG, m.end())
            self._lex_php()
        return self.stream

    def _lex_php(self) -> None:
        src = self.src
        while self.pos < len(src):
            ch = src[self.pos]
            if ch in " \t\r\n":
                # consume the whole run at once so \r\n counts as one line
                end = self.pos + 1
                while end < len(src) and src[end] in " \t\r\n":
                    end += 1
                self._advance(end)
            elif src.startswith("?>", self.pos):
                self._emit(TokenKind.CLOSE_TAG, self.pos + 2)
                return
            elif src.startswith("//", self.pos) or ch == "#":
                self._lex_line_comment()
            elif src.startswith("/*", self.pos):
                self._lex_block_comment()
            elif ch == "$":
                self._lex_dollar()
            elif ch == "'":
                self._lex_single_quoted()
            elif ch == '"' or ch == "`":
                self._lex_double_quoted(ch)
            elif src.startswith("<<<", self.pos):
                self._lex_heredoc()
            elif ch.isdigit() or (ch == "." and self._peek(1).isdigit()):
                self._lex_number()
            elif _IDENT_START.match(ch):
                self._lex_identifier()
            elif ch in PUNCTUATION:
                self._emit(TokenKind.PUNCTUATION, self.pos + 1)
            else:
                for op in OPERATORS:
                    if src.startswith(op, self.pos):
                        self._emit(TokenKind.OPERATOR, self.pos + len(op))
                        break
                else:
                    self._diag(f"unexpected character {ch!r}")
                    self._advance(self.pos + 1)

    # -- token scanners ----------------------------------------------------

    def _lex_line_comment(self) -> None:
        src = self.src
        end = self.pos
        while end < len(src) and src[end] not in "\r\n":
            if src.startswith("?>", end):
                break
            end += 1
        self._emit(TokenKind.COMMENT, end)

    def _lex_block_comment(self) -> None:
        start_line = self.line
        end = self.src.find("*/", self.pos + 2)
        if end < 0:
            self._diag("unterminated block comment", start_line)
            self._emit(TokenKind.COMMENT, len(self.src), start_line)
        else:
            self._emit(TokenKind.COMMENT, end + 2, start_line)

    def _lex_dollar(self) -> None:
        if _IDENT_START.match(self._peek(1)):
            m = _IDENT_CHARS.match(self.src, self.pos + 2)
            self._emit(TokenKind.VARIABLE, m.end())
        else:
            # bare $ as in $$name or ${name}
            self._emit(TokenKind.OPERATOR, self.pos + 1)

    def _lex_single_quoted(self) -> None:
        start_line = self.line
        i = self.pos + 1
        src = self.src
        while i < len(src):
            if src[i] == "\\":
                i += 2
                continue
            if src[i] == "'":
                self._emit(TokenKind.STRING, i + 1, start_line)
                return
            i += 1
        self._diag("unterminated string literal", start_line)
        self._emit(TokenKind.STRING, len(src), start_line)

    def _lex_double_quoted(self, quote: str) -> None:
        start_line = self.line
        i = self.pos + 1
        src = self.src
        while i < len(src):
            if src[i] == "\\":
                i += 2
                continue
            if src[i] == quote:
                body = src[self.pos + 1 : i]
                interps = extract_interpolations(body) if quote == '"' else ()
                self._emit(TokenKind.STRING, i + 1, start_line, interps)
                return
            i += 1
        self._diag("unterminated string literal", start_line)
        body = src[self.pos + 1 :]
        interps = extract_interpolations(body) if quote == '"' else ()
        self._emit(TokenKind.STRING, len(src), start_line, interps)

    def _lex_heredoc(self) -> None:
        start_line = self.line
        src = self.src
        m = re.compile(r"<<<[ \t]*(['\"]?)([A-Za-z_][A-Za-z0-9_]*)\1[ \t]*(\r\n|\r|\n)").match(src, self.pos)
        if m is None:
            # <<< that is not a heredoc header: emit << and < as operators
            self._emit(TokenKind.OPERATOR, self.pos + 2)
            return
        label = m.group(2)
        nowdoc = m.group(1) == "'"
        # terminator: a line consisting of optional indentation, the label,
        # and an optional statement tail (; or ,)
        term = re.compile(
            r"(?:\r\n|\r|\n)[ \t]*" + re.escape(label) + r"(?=[;,) \t]|\r|\n|$)"
        )
        t = term.search(src, m.end() - 1)
        if t is None:
            self._diag("unterminated heredoc", start_line)
            body = src[m.end():]
            interps = () if nowdoc else extract_interpolations(body)
            self._emit(TokenKind.STRING, len(src), start_line, interps)
            return
        body = src[m.end() : t.start()]
        interps = () if nowdoc else extract_interpolations(body)
        self._emit(TokenKind.STRING, t.end(), start_line, interps)

    def _lex_number(self) -> None:
        src = self.src
        m = re.compile(
            r"0[xX][0-9a-fA-F_]+|0[bB][01_]+|[0-9][0-9_]*(?:\.[0-9_]+)?(?:[eE][+-]?[0-9]+)?|\.[0-9_]+(?:[eE][+-]?[0-9]+)?"
        ).match(src, self.pos)
        assert m is not None
        self._emit(TokenKind.NUMBER, m.end())

    def _lex_identifier(self) -> None:
        m = _IDENT_CHARS.match(self.src, self.pos + 1)
        lexeme = self.src[self.pos : m.end()]
        kind = TokenKind.KEYWORD if lexeme.lower() in KEYWORDS else TokenKind.IDENTIFIER
        self._emit(kind, m.end())


def tokenize(source: str | bytes, path: str = "<source>") -> TokenStream:
    """Tokenize PHP source.  Total: never raises on malformed input.

    Bytes are accepted as-is (decoded 1:1 so lexemes stay exact substrings
    of the input); text outside <?php ... ?> regions becomes InlineHtml.
    """
    if isinstance(source, bytes):
        source = source.decode("latin-1")
    return _Lexer(source, path).run()
