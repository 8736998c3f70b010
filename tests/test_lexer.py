import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phpwarden.lexer import TokenKind, TokenStream, extract_interpolations, tokenize


def kinds(source):
    return [t.kind for t in tokenize(source).tokens]


def lexemes(source, kind=None):
    return [t.lexeme for t in tokenize(source).tokens if kind is None or t.kind == kind]


def test_plain_html_is_one_inline_token():
    stream = tokenize("<html><body>hi</body></html>")
    assert [t.kind for t in stream.tokens] == [TokenKind.INLINE_HTML]
    assert stream.diagnostics == []


def test_open_close_tags_and_surrounding_html():
    stream = tokenize("before<?php echo 1; ?>after")
    ks = [t.kind for t in stream.tokens]
    assert ks[0] == TokenKind.INLINE_HTML
    assert TokenKind.OPEN_TAG in ks and TokenKind.CLOSE_TAG in ks
    assert ks[-1] == TokenKind.INLINE_HTML


def test_short_echo_tag_is_open_tag():
    stream = tokenize("<?= $x ?>")
    assert stream.tokens[0].kind == TokenKind.OPEN_TAG
    assert stream.tokens[0].lexeme == "<?="


def test_variables_and_identifiers():
    toks = tokenize("<?php $user = getName($id);").tokens
    variables = [t.lexeme for t in toks if t.kind == TokenKind.VARIABLE]
    assert variables == ["$user", "$id"]
    assert "getName" in [t.lexeme for t in toks if t.kind == TokenKind.IDENTIFIER]


def test_keywords_are_keyword_kind():
    toks = tokenize("<?php echo include require eval exit;").tokens
    kws = [t.lexeme for t in toks if t.kind == TokenKind.KEYWORD]
    assert kws == ["echo", "include", "require", "eval", "exit"]


def test_line_numbers_uniform_across_newline_styles():
    for nl in ("\n", "\r\n", "\r"):
        src = f"<?php{nl}$a = 1;{nl}$b = 2;{nl}"
        toks = tokenize(src).tokens
        lines = {t.lexeme: t.line for t in toks if t.kind == TokenKind.VARIABLE}
        assert lines == {"$a": 2, "$b": 3}, repr(nl)


def test_single_quoted_string_no_interpolation():
    toks = tokenize("<?php $s = 'no $vars here';").tokens
    lit = next(t for t in toks if t.kind == TokenKind.STRING)
    assert lit.interpolations == ()


def test_double_quoted_interpolation_reported():
    toks = tokenize('<?php $s = "hello $name and {$other}";').tokens
    lit = next(t for t in toks if t.kind == TokenKind.STRING)
    assert lit.interpolations == ("$name", "$other")


def test_escaped_dollar_not_interpolated():
    assert extract_interpolations(r"price \$100 for $item") == ("$item",)


def test_interpolation_braced_form():
    assert extract_interpolations("${name} and $name") == ("$name",)


def test_heredoc_is_string_literal():
    src = "<?php $q = <<<EOT\nline $x\nEOT;\n$y = 1;"
    toks = tokenize(src).tokens
    lit = next(t for t in toks if t.kind == TokenKind.STRING)
    assert "$x" in lit.interpolations
    assert any(t.lexeme == "$y" and t.line == 4 for t in toks)


def test_nowdoc_has_no_interpolations():
    src = "<?php $q = <<<'EOT'\nline $x\nEOT;\n"
    lit = next(t for t in tokenize(src).tokens if t.kind == TokenKind.STRING)
    assert lit.interpolations == ()


def test_comments_do_not_swallow_close_tag():
    stream = tokenize("<?php // comment ?>html")
    assert stream.tokens[-1].kind == TokenKind.INLINE_HTML
    assert stream.tokens[-1].lexeme == "html"


def test_block_comment_spans_lines():
    toks = tokenize("<?php /* a\nb */ $v = 1;").tokens
    var = next(t for t in toks if t.kind == TokenKind.VARIABLE)
    assert var.line == 2


def test_operators_longest_first():
    ops = lexemes("<?php $a === $b; $c .= $d; $e ?? $f;", TokenKind.OPERATOR)
    assert "===" in ops and ".=" in ops and "??" in ops


def test_unterminated_string_yields_diagnostic_not_exception():
    stream = tokenize('<?php $s = "never closed')
    assert stream.diagnostics, "expected a diagnostic"
    assert any("unterminated" in d.message for d in stream.diagnostics)


def test_bytes_input_decoded_latin1():
    stream = tokenize(b"<?php $caf\xe9 = 1;")
    assert stream.diagnostics == []
    assert any(t.kind == TokenKind.VARIABLE for t in stream.tokens)


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=300))
def test_tokenize_is_total(source):
    # never raises, whatever the input; problems surface as diagnostics
    stream = tokenize(source)
    assert isinstance(stream.tokens, list)


# Latin-1 superscript digits pass str.isdigit() but are identifier bytes in
# PHP; they must lex like any other character, not abort the lexer.
@pytest.mark.parametrize("source", ["<?php ²", "<?php .¹;", b"<?php $n = 2\xb2;", "<?php ³ = 1;"])
def test_latin1_superscript_digits_do_not_abort(source):
    stream = tokenize(source)
    assert isinstance(stream, TokenStream)
    assert stream.tokens[0].kind == TokenKind.OPEN_TAG


def test_non_latin1_digit_is_an_unexpected_character():
    stream = tokenize("<?php $a = ٣;")
    assert [d.message for d in stream.diagnostics] == ["unexpected character '٣'"]


PHP_FRAGMENTS = [
    " ", "\t", "\n", "\r", "\r\n", "$", "$a", "$_GET", "${x}", "{$y}", "'", '"', "`", "\\",
    "//", "#", "/*", "*/", "/", "*", "?", ">", "?>", "<?php ", "<?=", "<<<", "<<<EOT\n",
    "<<<'N'\n", '<<<"Q"\r\n', "EOT", "\nEOT;\n", "\nN\n", "\r\nQ,", "0x1F", "0b101", "1.5e3",
    ".5", "...", "1_000", "12", "echo", "include", "function", "foo", "_bar", "é", "(", ")",
    "[", "]", "{", "}", ";", ",", "=", "===", "<=>", "**=", "??=", "?->", "->", "::", "@",
    "~", "!", ".=", "'a $b'", '"a $b c"', "\xb2", "\xb3", "\xb9", "\xa0", "\x0b", "€",
]

php_mode = st.lists(
    st.sampled_from(PHP_FRAGMENTS) | st.text(alphabet="ab1.$'\"\\\n\xb2\xb3\xb9\xa0\x0b€", max_size=3),
    max_size=40,
).map(lambda parts: "<?php " + "".join(parts))


@settings(max_examples=300, deadline=None)
@given(php_mode)
def test_tokenize_is_total_in_php_mode(source):
    stream = tokenize(source)
    assert isinstance(stream.tokens, list)


def _line_at(source, pos):
    return source[:pos].replace("\r\n", "\n").replace("\r", "\n").count("\n") + 1


@settings(max_examples=300, deadline=None)
@given(php_mode)
def test_tokens_tile_the_source(source):
    # Every lexeme is an exact substring, in order; what lies between two
    # tokens is whitespace or characters reported as unexpected; each token's
    # line counts the LF, CR and CRLF terminators before its start.
    stream = tokenize(source)
    unexpected = [(d.message, d.line) for d in stream.diagnostics
                  if d.message.startswith("unexpected character")]
    pos = 0
    for tok in stream.tokens + [None]:
        start = len(source) if tok is None else source.find(tok.lexeme, pos)
        assert start >= 0
        for gap_pos in range(pos, start):
            ch = source[gap_pos]
            if ch not in " \t\r\n":
                unexpected.remove((f"unexpected character {ch!r}", _line_at(source, gap_pos)))
        if tok is not None:
            assert tok.lexeme and tok.line == _line_at(source, start)
            pos = start + len(tok.lexeme)
    assert unexpected == []


@pytest.mark.parametrize("source", ["<?php $a;  \n\t ", "<?php ", "<?php\r\n \r\n"])
def test_whitespace_tail_gives_no_diagnostic(source):
    stream = tokenize(source)
    assert stream.diagnostics == []
    assert stream.tokens[0].kind == TokenKind.OPEN_TAG


def test_stray_control_character_gives_one_diagnostic():
    stream = tokenize("<?php \x01 ")
    assert [(d.message, d.line) for d in stream.diagnostics] == [("unexpected character '\\x01'", 1)]
    assert [t.kind for t in stream.tokens] == [TokenKind.OPEN_TAG]


def test_tokens_compare_and_hash_by_value():
    from phpwarden.lexer import Token

    a = tokenize('<?php "$x";').tokens
    b = tokenize('<?php "$x";').tokens
    assert a == b and a is not b
    assert len({*a, *b}) == len(a)
    assert hash(a[1]) == hash(Token(TokenKind.STRING, '"$x"', 1, ("$x",)))
    assert a[1] != Token(TokenKind.STRING, '"$x"', 1)  # interpolations differ
    assert a[1] != Token(TokenKind.STRING, '"$x"', 2, ("$x",))
    assert a[1] != (TokenKind.STRING, '"$x"', 1, ("$x",))
    assert repr(a[1]) == "Token(StringLiteral, '\"$x\"', line=1)"


# PHP >= 7.3 ends a heredoc or nowdoc at its label when the next character
# cannot continue a name
HEREDOC_CLOSERS = ["]", ".", ":", "-", ";", ",", ")", " ", "\t", "\n", "\r", "\r\n", ""]


@pytest.mark.parametrize("opener", ["<<<EOT", "<<<'EOT'", '<<<"EOT"'], ids=["heredoc", "nowdoc", "quoted"])
@pytest.mark.parametrize("closer", HEREDOC_CLOSERS)
def test_heredoc_ends_at_a_label_no_name_character_follows(opener, closer):
    stream = tokenize(f"<?php $a = [{opener}\n$x\n  EOT{closer} $b;")
    lit = next(t for t in stream.tokens if t.kind == TokenKind.STRING)
    assert lit.lexeme == f"{opener}\n$x\n  EOT"
    assert lit.interpolations == (() if "'" in opener else ("$x",))
    assert stream.diagnostics == []
    assert [t.lexeme for t in stream.tokens if t.kind == TokenKind.VARIABLE] == ["$a", "$b"]
    assert next(t for t in stream.tokens if t.lexeme == "$b").line == 3 + closer.count("\n") + (closer == "\r")


@pytest.mark.parametrize("follower", ["X", "1", "_", "\xe9"])
def test_heredoc_label_followed_by_a_name_character_does_not_end_it(follower):
    stream = tokenize(f"<?php $a = <<<EOT\nEOT{follower};\nEOT;\n$b;")
    lit = next(t for t in stream.tokens if t.kind == TokenKind.STRING)
    assert lit.lexeme == f"<<<EOT\nEOT{follower};\nEOT"
    assert stream.diagnostics == []


@pytest.mark.parametrize("opener", ["<<<\xc9T", "<<<'\xc9T'", '<<<"\xc9T"', "<<<T\xe9"],
                         ids=["heredoc", "nowdoc", "quoted", "high-byte-after-first"])
def test_heredoc_label_may_hold_bytes_0x80_to_0xff(opener):
    # the opener's label is a PHP name, as its closer is
    label = opener.strip("<'\"")
    source = f"<?php $a = {opener}\n$_GET x\n{label};"
    for stream in (tokenize(source), tokenize(source.encode("latin-1"))):
        assert [(t.kind, t.lexeme, t.line) for t in stream.tokens] == [
            (TokenKind.OPEN_TAG, "<?php", 1), (TokenKind.VARIABLE, "$a", 1), (TokenKind.OPERATOR, "=", 1),
            (TokenKind.STRING, f"{opener}\n$_GET x\n{label}", 1), (TokenKind.PUNCTUATION, ";", 3)]
        assert stream.tokens[3].interpolations == (() if "'" in opener else ("$_GET",))
        assert stream.diagnostics == []


def test_sink_after_a_heredoc_closed_by_a_bracket_is_lexed():
    stream = tokenize("<?php\n$a = [<<<EOT\nx\nEOT];\necho $a;\n")
    assert stream.diagnostics == []
    assert [(t.lexeme, t.line) for t in stream.tokens if t.kind == TokenKind.KEYWORD] == [("echo", 5)]


heredoc_bodies = st.lists(
    st.sampled_from(["x", " ", "$y", "{$z}", "EOTX", "EOT1", "EOT_", "\n", "\r", "\r\n", "];", "'", '"', "\\"]),
    max_size=8,
).map("".join)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    opener=st.sampled_from(["<<<EOT", "<<<'EOT'", '<<<"EOT"', "<<< EOT"]),
    newline=st.sampled_from(["\n", "\r", "\r\n"]),
    body=heredoc_bodies,
    indent=st.sampled_from(["", " ", "\t  "]),
    closer=st.sampled_from(HEREDOC_CLOSERS),
    tail=st.lists(st.sampled_from(PHP_FRAGMENTS), max_size=10).map("".join),
)
def test_heredocs_tile_the_source(opener, newline, body, indent, closer, tail):
    # the invariants of test_tokens_tile_the_source, on heredoc and nowdoc
    # bodies closed by each kind of closer
    source = f"<?php $a = [{opener}{newline}{body}{newline}{indent}EOT{closer}{tail}"
    stream = tokenize(source)
    unexpected = [(d.message, d.line) for d in stream.diagnostics
                  if d.message.startswith("unexpected character")]
    pos = 0
    for tok in stream.tokens + [None]:
        start = len(source) if tok is None else source.find(tok.lexeme, pos)
        assert start >= 0
        for gap_pos in range(pos, start):
            ch = source[gap_pos]
            if ch not in " \t\r\n":
                unexpected.remove((f"unexpected character {ch!r}", _line_at(source, gap_pos)))
        if tok is not None:
            assert tok.lexeme and tok.line == _line_at(source, start)
            pos = start + len(tok.lexeme)
    assert unexpected == []
    heredoc = next(t for t in stream.tokens if t.lexeme.startswith("<<<"))
    assert heredoc.lexeme.endswith("EOT") and heredoc.line == 1
