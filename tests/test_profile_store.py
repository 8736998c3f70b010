import errno
import http.client
import io
import os
import tempfile
from http.server import BaseHTTPRequestHandler
from pathlib import Path
from xml.sax.saxutils import escape as xml_escape

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from phpwarden import http1, profile_store
from phpwarden.http1 import (
    CHUNKED,
    Connection,
    SESSION_COOKIE,
    cookie_value,
    login_succeeded,
    page_of,
    parse_header_block,
    parse_response_head,
    request_key,
    set_cookie_value,
)
from phpwarden.models import build_model
from phpwarden.profile_store import ProfileStore

from conftest import BARE_CR_REQUEST


def head_text(target, cookie=None, method="GET"):
    lines = [f"{method} {target} HTTP/1.1", "Host: app.local"]
    if cookie:
        lines.append(f"Cookie: {cookie}")
    return "\r\n".join(lines) + "\r\n\r\n"


def session_flag(head, session_cookie_name=SESSION_COOKIE):
    """The session flag record_exchange writes for head."""
    return int(request_key(head, session_cookie_name).cookie is not None)


def request_id(method, target):
    return request_key(parse_header_block(head_text(target, method=method))).request_id


# -- header parsing ---------------------------------------------------------


def test_parse_header_block_round_trip_fields():
    head = parse_header_block(head_text("/Home.php?x=1", cookie="PHPSESSID=abc"))
    assert head.method == "GET"
    assert head.target == "/Home.php?x=1"
    assert head.version == "HTTP/1.1"
    assert head.get("host") == "app.local"
    assert [v for k, v in head.headers if k.lower() == "cookie"] == ["PHPSESSID=abc"]
    assert head.get("absent") is None


def test_parse_header_block_rejects_malformed():
    with pytest.raises(ValueError, match="request line"):
        parse_header_block("GARBAGE\r\n\r\n")
    with pytest.raises(ValueError, match="request line"):
        parse_header_block("GET /x NOTHTTP\r\n\r\n")
    with pytest.raises(ValueError, match="header line"):
        parse_header_block("GET /x HTTP/1.1\r\nno colon here\r\n\r\n")
    with pytest.raises(ValueError, match="empty"):
        parse_header_block("\r\n\r\n")


def test_parse_header_block_rejects_text_after_the_blank_line():
    # a second request behind a bare-LF or whitespace-only blank line
    for text in (
        "GET /a.php HTTP/1.1\nHost: x\n\nGET /b.php HTTP/1.1\r\n\r\n",
        "GET /a.php HTTP/1.1\r\nHost: x\r\n \r\nGET /b.php HTTP/1.1\r\n\r\n",
        "GET /a.php HTTP/1.1\r\n\r\nHost: x\r\n\r\n",
    ):
        with pytest.raises(ValueError, match="blank line"):
            parse_header_block(text)
    # blank lines alone may follow the head
    head = parse_header_block("GET /a.php HTTP/1.1\r\nHost: x\r\n \r\n\r\n")
    assert (head.target, head.headers) == ("/a.php", (("Host", "x"),))


def test_parse_header_block_refuses_a_cut_off_head():
    # the blank line that ends a head must itself end in a line break
    for text in (
        "GET /a.php HTTP/1.1",
        "GET /a.php HTTP/1.1\r\nHost: x",
        "GET /a.php HTTP/1.1\r\nHost: x\r\n",
        "GET /a.php HTTP/1.1\r\nHost: x\r\n\r",
    ):
        with pytest.raises(ValueError, match="cut off"):
            parse_header_block(text)
    assert parse_header_block("GET /a.php HTTP/1.1\nHost: x\n\n").get("Host") == "x"


def test_parse_header_block_frames_the_body_by_one_content_length():
    assert parse_header_block(head_text("/a.php")).content_length == 0
    assert parse_header_block("POST /a.php HTTP/1.1\r\ncontent-length: 012\r\n\r\n").content_length == 12
    for fields, cause in (
        ("Transfer-Encoding: chunked", "Transfer-Encoding"),
        ("transfer-encoding: identity\r\nContent-Length: 3", "Transfer-Encoding"),
        ("Content-Length: 3\r\nContent-Length: 3", "2 Content-Length fields"),
        ("Content-Length: 3 ", None),
        ("Content-Length: -3", "not a length"),
        ("Content-Length: 3, 3", "not a length"),
        ("Content-Length: \u0663", "not a length"),
        ("Content-Length:", "not a length"),
    ):
        text = f"POST /a.php HTTP/1.1\r\n{fields}\r\n\r\n"
        if cause is None:
            assert parse_header_block(text).content_length == 3
        else:
            with pytest.raises(ValueError, match=cause):
                parse_header_block(text)


@pytest.mark.parametrize("fields", [
    "Transfer-Encoding: chunked\r\nContent-Length: 3",
    "Content-Length: 3\r\nTransfer-Encoding: chunked",
    "transfer-encoding: chunked\r\nContent-Length: 3",
    "Content-Length: 3\r\nTRANSFER-ENCODING: identity",
    "Content-Length: 3\r\nContent-Length: 3\r\nTransfer-Encoding: chunked",
    "Content-Length: x\r\ntRaNsFeR-eNcOdInG: chunked",
], ids=["te-before-cl", "te-after-cl", "lower-case-te-first", "upper-case-te-last",
        "te-after-two-cls", "te-after-a-bad-cl"])
def test_request_transfer_encoding_is_refused_wherever_it_sits(fields):
    # whatever Content-Length fields come before it, the refusal names the
    # Transfer-Encoding, so the deviation log reads the same
    with pytest.raises(ValueError, match="Transfer-Encoding framing is refused"):
        parse_header_block(f"POST /a.php HTTP/1.1\r\nHost: x\r\n{fields}\r\n\r\n")


@pytest.mark.parametrize("fields", [
    "Content-Length: 3\r\nContent-Length: 3",
    "content-length: 3\r\nHost: x\r\nCONTENT-LENGTH: 4",
], ids=["same-case", "mixed-case-apart"])
def test_request_with_two_content_lengths_is_refused(fields):
    with pytest.raises(ValueError, match="2 Content-Length fields"):
        parse_header_block(f"POST /a.php HTTP/1.1\r\n{fields}\r\n\r\n")


def test_request_head_get_is_first_match_in_any_case():
    head = parse_header_block("GET /a.php HTTP/1.1\r\nuser-agent: first\r\nX-A: 1\r\n"
                              "USER-AGENT: second\r\nUser-Agent: third\r\n\r\n")
    assert head.get("User-Agent") == "first"
    assert head.get("USER-agent") == "first"
    assert head.get("x-a") == "1"
    assert head.get("Cookie") is None
    assert [v for k, v in head.headers if k.lower() == "user-agent"] == ["first", "second", "third"]


@pytest.mark.parametrize("fields", [
    "Transfer-Encoding: chunked\r\nContent-Length: 5",
    "Content-Length: 5\r\nTransfer-Encoding: chunked",
    "content-length: 5\r\ntransfer-encoding: chunked",
], ids=["te-first", "cl-first", "lower-case"])
@pytest.mark.parametrize("status_line", ["200 OK", "101 Switching Protocols"])
def test_response_transfer_encoding_beside_a_content_length_is_refused(fields, status_line):
    response = f"HTTP/1.1 {status_line}\r\n{fields}\r\n\r\n5\r\nhello\r\n0\r\n\r\n".encode()
    with pytest.raises(ValueError, match="beside other framing"):
        Connection(_PieceSocket(response, 7)).read_response_head("GET", lambda head: None)


@pytest.mark.parametrize("line", [
    "Content-Length : 3", "Content-Length\t: 3", " Content-Length: 3", "\tX-Folded: 1", ": 3",
], ids=["space-before-colon", "tab-before-colon", "obs-fold", "obs-fold-tab", "empty-name"])
def test_field_names_with_whitespace_are_refused(line):
    # an upstream that does not see this Content-Length reads the body as a
    # second request (RFC 9112 sections 5.1 and 5.2)
    with pytest.raises(ValueError, match="header line"):
        parse_header_block(f"POST /a.php HTTP/1.1\r\nHost: x\r\n{line}\r\n\r\n")
    with pytest.raises(ValueError, match="header line"):
        parse_response_head(f"HTTP/1.1 200 OK\r\nServer: x\r\n{line}\r\n\r\n", "GET")


def test_session_flag_extraction():
    assert session_flag(parse_header_block(head_text("/a.php"))) == 0
    flagged = parse_header_block(head_text("/a.php", cookie="PHPSESSID=deadbeef"))
    assert session_flag(flagged) == 1
    # empty value is no session
    empty = parse_header_block(head_text("/a.php", cookie="PHPSESSID="))
    assert session_flag(empty) == 0
    # other cookies do not count
    other = parse_header_block(head_text("/a.php", cookie="theme=dark"))
    assert session_flag(other) == 0
    # multi-pair header
    multi = parse_header_block(head_text("/a.php", cookie="theme=dark; PHPSESSID=x"))
    assert session_flag(multi) == 1
    assert [cookie_value(c, "PHPSESSID") for k, c in multi.headers if k.lower() == "cookie"] == ["x"]


def test_session_flag_respects_cookie_name():
    head = parse_header_block(head_text("/a.php", cookie="MYSESS=x"))
    assert session_flag(head) == 0
    assert session_flag(head, "MYSESS") == 1


@pytest.mark.parametrize("headers, expected", [
    ([("Set-Cookie", "PHPSESSID=abc; Path=/; HttpOnly")], "abc"),
    ([("Set-Cookie", "theme=dark; Path=/")], None),
    ([("Set-Cookie", "PHPSESSID=; Path=/")], None),
    ([("sEt-CoOkIe", "PHPSESSID=mixed")], "mixed"),
    ([("Set-Cookie", "theme=dark"), ("Set-Cookie", "PHPSESSID=first"),
      ("Set-Cookie", "PHPSESSID=second")], "first"),
    ([("Location", "PHPSESSID=nope"), ("Set-Cookie", "Path=/; PHPSESSID=attr")], None),
], ids=["attributes-after-pair", "other-cookie", "empty-value", "mixed-case-name",
        "first-match-wins", "only-leading-pair-of-set-cookie"])
def test_set_cookie_value(headers, expected):
    assert set_cookie_value(headers) == expected


@pytest.mark.parametrize("method, status_line, fields, length", [
    ("HEAD", "200 OK", "Content-Length: 5", 0),
    ("GET", "100 Continue", "", 0),
    ("GET", "103 Early Hints", "Link: </a.css>", 0),
    ("GET", "204 No Content", "", 0),
    ("GET", "304 Not Modified", "Content-Length: 5", 0),
    ("GET", "200 OK", "Transfer-Encoding: chunked", CHUNKED),
    ("GET", "200 OK", "Transfer-Encoding: gzip, Chunked", CHUNKED),
    ("GET", "200 OK", "Transfer-Encoding: gzip\r\nTransfer-Encoding: chunked", CHUNKED),
    ("GET", "200 OK", "Transfer-Encoding: gzip", None),
    ("GET", "200 OK", "Transfer-Encoding: chunked, gzip", None),
    ("GET", "200 OK", "Content-Length: 5\r\nTransfer-Encoding: chunked", CHUNKED),
    ("POST", "200 OK", "Content-Length: 5", 5),
    ("GET", "200", "Content-Length: 0", 0),
    ("GET", "302 Found", "Location: /a.php", None),
], ids=["head", "1xx", "103", "204", "304", "chunked", "gzip-chunked", "chunked-in-second-field",
        "gzip-until-close", "chunked-not-final", "te-wins-over-cl", "length", "no-reason-phrase",
        "no-length"])
def test_response_framing_follows_rfc_9112_section_6_3(method, status_line, fields, length):
    text = f"HTTP/1.1 {status_line}\r\n{fields}\r\n\r\n" if fields else f"HTTP/1.1 {status_line}\r\n\r\n"
    status, parsed, framed = parse_response_head(text, method)[:3]
    assert status == int(status_line[:3])
    assert parsed == [tuple(field.split(": ", 1)) for field in fields.split("\r\n") if field]
    assert framed == length


@pytest.mark.parametrize("text, cause", [
    ("HTTP/1.1 200 OK\r\nContent-Length: five\r\n\r\n", "not a length"),
    ("HTTP/1.1 200 OK\r\nContent-Length: 5\r\nContent-Length: 5\r\n\r\n", "2 Content-Length"),
    ("HTTP/1.1 200 OK\r\nContent-Length: 5, 5\r\n\r\n", "not a length"),
    ("HTTP/1.1 2000 OK\r\n\r\n", "status line"),
    ("HTTP/1.1 OK\r\n\r\n", "status line"),
    ("HTTP/1.1 099 Low\r\n\r\n", "status line"),
    ("ICY 200 OK\r\n\r\n", "status line"),
    ("HTTP/1.1 200 OK\r\nno colon\r\n\r\n", "header line"),
    ("HTTP/1.1 200 OK\r\nServer: x\r\n", "cut off"),
    ("HTTP/1.1 200 OK\n\nHTTP/1.1 200 OK\r\n\r\n", "blank line"),
], ids=["not-a-number", "repeated", "list", "four-digits", "no-code", "below-100", "not-http",
        "no-colon", "cut-off", "second-head"])
def test_response_head_refuses_what_it_cannot_frame(text, cause):
    with pytest.raises(ValueError, match=cause):
        parse_response_head(text, "GET")


_HEAD_PIECES = st.one_of(
    st.sampled_from(["\r\n", "\n", "\r", " ", "\t", ":", "GET /a.php HTTP/1.1", "HTTP/1.1 200 OK",
                     "HTTP/1.1 100 Continue", "HTTP/1.1 204 ", "Content-Length: ", "Transfer-Encoding: ",
                     "chunked", "gzip, ", "5", "-1"]),
    st.text(st.characters(max_codepoint=255), max_size=6),
)


@settings(max_examples=300, deadline=None)
@given(text=st.one_of(st.text(st.characters(max_codepoint=255)),
                      st.lists(_HEAD_PIECES, max_size=24).map("".join)))
def test_head_parsers_are_total_on_latin1_text(text):
    try:
        head = parse_header_block(text)
        assert head.content_length >= 0
    except ValueError:
        pass
    for method in ("GET", "HEAD"):
        try:
            status, _, length = parse_response_head(text, method)[:3]
            assert 100 <= status <= 599 and (length is None or length == CHUNKED or length >= 0)
        except ValueError:
            pass


class _PieceSocket:
    """A peer that has sent data, handed over size bytes per recv, then
    closes."""

    def __init__(self, data: bytes, size: int):
        self.data, self.size, self.pos = data, size, 0

    def recv(self, limit: int) -> bytes:
        piece = self.data[self.pos:self.pos + min(self.size, limit)]
        self.pos += len(piece)
        return piece


def test_read_head_searches_each_byte_received_about_once(monkeypatch):
    searched = []
    blank_line = http1._BLANK_LINE

    class CountingBlankLine:
        def search(self, buf, pos=0):
            searched.append(len(buf) - pos)
            return blank_line.search(buf, pos)

    monkeypatch.setattr(http1, "_BLANK_LINE", CountingBlankLine())
    for lines in (10, 40, 160):
        # short lines and one long one, dripped a byte at a time
        head = (b"GET /a.php HTTP/1.1\r\n" + b"X-Pad: abc\r\n" * lines
                + b"X-Long: " + b"v" * (100 * lines) + b"\r\n\r\n")
        searched.clear()
        conn = Connection(_PieceSocket(head + b"rest", 1))
        assert (conn.read_head(), conn.buf) == (head, b"")
        assert sum(searched) <= 2 * len(head), (len(head), sum(searched))


_WIRE_PIECES = st.sampled_from([b"\r\n", b"\n", b"\r", b" ", b"\t", b"\x85", b"a", b"GET / HTTP/1.1", b"H: v"])


@settings(max_examples=300, deadline=None)
@given(data=st.lists(_WIRE_PIECES, max_size=20).map(b"".join), size=st.integers(1, 4))
def test_read_head_ends_where_it_would_on_one_read(data, size):
    # the search that resumes after each piece finds the blank line, and
    # cuts the head, exactly where one search over all of it does
    conn = Connection(_PieceSocket(data, size))
    head, rest = conn.read_head(), conn.buf
    assert head == Connection(_PieceSocket(data, 1 << 20)).read_head()
    assert data.startswith(head + rest)


@st.composite
def _message(draw):
    """(head, body length as relay takes it, body bytes, body data): a
    request with a Content-Length body, or a response with a length, a
    chunked or an empty body."""
    kind = draw(st.sampled_from(["request", "length", "chunked", "empty"]))
    data = draw(st.binary(max_size=40))
    if kind == "request":
        head = b"POST /a.php HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\n" % len(data)
        return head, len(data), data, data
    if kind == "length":
        return b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n" % len(data), len(data), data, data
    if kind == "empty":
        return b"HTTP/1.1 204 No Content\r\n\r\n", 0, b"", b""
    chunks = draw(st.lists(st.binary(min_size=1, max_size=20), max_size=3))
    trailer = draw(st.sampled_from([b"", b"X-T: 1\r\n"]))
    body = b"".join(b"%x\r\n%s\r\n" % (len(chunk), chunk) for chunk in chunks) + b"0\r\n" + trailer + b"\r\n"
    return b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n", CHUNKED, body, b"".join(chunks)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(messages=st.lists(_message(), min_size=1, max_size=3), size=st.integers(1, 64),
       prefix=st.booleans())
def test_connection_hands_on_each_message_once_and_keeps_the_next_in_buf(messages, size, prefix):
    # read_head and relay, in turn, hand on exactly their message's bytes;
    # what was read past them is in buf, where the next message starts
    stream = b"".join(head + body for head, _, body, _ in messages)
    sock = _PieceSocket(stream, size)
    conn, at = Connection(sock), 0
    for head, length, body, data in messages:
        assert conn.read_head() == head
        at += len(head)
        assert stream.startswith(conn.buf, at) and sock.pos - len(conn.buf) == at
        sent, got = [], []
        assert conn.relay(length, sent.append, head if prefix else b"", got.append)
        assert (b"".join(sent), b"".join(got)) == ((head if prefix else b"") + body, data)
        at += len(body)
        assert stream.startswith(conn.buf, at) and sock.pos - len(conn.buf) == at
    assert (conn.buf, sock.pos) == (b"", len(stream))


class _RecordingHandler(BaseHTTPRequestHandler):
    """http.server's HTTP/1.1 parsing over bytes: each request line it reads
    is recorded, as (method, target) or as None when it refuses the request,
    and a request's body is read by Content-Length, as a keep-alive
    upstream application reads it."""

    protocol_version = "HTTP/1.1"

    def __init__(self, data: bytes):  # no socket, no server
        self.rfile, self.wfile = io.BytesIO(data), io.BytesIO()
        self.client_address = ("127.0.0.1", 0)
        self.parsed = []
        self.handle()

    def parse_request(self):
        parsed = super().parse_request()
        self.parsed.append((self.command, self.path) if parsed else None)
        return parsed

    def _read_body(self):
        length = (self.headers.get("Content-Length") or "").strip(" \t")
        self.rfile.read(int(length) if length.isdigit() else 0)

    do_GET = do_POST = do_HEAD = do_PUT = _read_body

    def log_message(self, *args):
        pass


def proxy_forwards(data: bytes, size: int):
    """(verified head, bytes sent upstream) for a client that sends data in
    pieces of size bytes, framed as the proxy frames it (Connection.read_head,
    then parse_header_block, then Connection.relay by Content-Length), with
    every parsed head taken as passing; (None, b"") when nothing would be
    forwarded."""
    conn = Connection(_PieceSocket(data, size))
    head_bytes = conn.read_head()
    try:
        head = parse_header_block(head_bytes.decode("latin-1"))
    except ValueError:
        return None, b""
    body = []
    if not conn.relay(head.content_length, body.append):
        return None, b""
    return head, head_bytes + b"".join(body)


# a head is a start line, then field lines, each after a line break, then
# the break that ends the head and a body; each field line joins one to
# three atoms, so a break or whitespace can fall inside one.  Repeats weight
# the pieces toward well-formed heads, which the proxy forwards.
_START_LINES = ["GET /a.php HTTP/1.1"] * 3 + ["POST /a.php HTTP/1.1"] * 3 + [
    "GET /a.php HTTP/1.0", "GET /a.php", "\r\nGET /a.php HTTP/1.1", "GET /a.php HTTP/1.1\r"]
_FIELD_ATOMS = ["Host: x", "X-Note: a", "Content-Length: 0", "Content-Length: 5", "Content-Length: 37"] * 3 + [
    "Content-Length : 5", "Transfer-Encoding: chunked", "Connection: close", "Expect: 100-continue",
    " X-Folded: 1", "\r", "\n", " ", "\t", "\x0b", "\x85", "\rContent-Length: 0", "\nContent-Length: 0"]
_BREAKS = ["\r\n"] * 6 + ["\n", "\r", "\r\r\n", " \r\n"]
_HEAD_ENDS = ["\r\n\r\n"] * 6 + ["\r\n\n", "\n\n", "\r\n \r\n", "\r\n\r\r\n", "\r\n\r", "\r\n"]
_BODIES = ["", "hello", "GET /Secret.php HTTP/1.1\r\nHost: x\r\n\r\n", "0\r\n\r\n"]
_field_line = st.tuples(st.sampled_from(_BREAKS),
                        st.lists(st.sampled_from(_FIELD_ATOMS), min_size=1, max_size=3).map("".join)).map("".join)
_framed_input = st.tuples(
    st.sampled_from(_START_LINES), st.lists(_field_line, max_size=4).map("".join),
    st.sampled_from(_HEAD_ENDS), st.lists(st.sampled_from(_BODIES), max_size=2).map("".join),
).map(lambda parts: "".join(parts).encode("latin-1"))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(data=_framed_input, size=st.integers(1, 64))
@example(data=BARE_CR_REQUEST, size=1 << 16)
@example(data=BARE_CR_REQUEST, size=60)
def test_upstream_parses_only_the_request_the_proxy_verified(data, size):
    # the upstream reads no request line, or one: the verified request, or
    # one it refuses; a second line read is a request never verified
    head, forwarded = proxy_forwards(data, size)
    if forwarded:
        parsed = _RecordingHandler(forwarded).parsed
        assert parsed in ([], [None], [(head.method, head.target)]), (forwarded, parsed)


# a head of whole fields, each after a drawn line break, and a body drawn
# from it: the same head again, declaring no body, which a peer reads as a
# second message whenever it frames the first one's body shorter than the
# proxy does.  {n} is the body's length.  Fields the proxy always refuses
# are left out, since a refused head cannot desync.
_SIZED_FIELDS = ["Host: x", "X-Note: a", "Content-Length: 0", "Content-Length: {n}", "Content-Length: {n}"]
_FIELD_BREAKS = ["\r\n"] * 4 + ["\n", "\r", "\r\r\n", " \r\n", "\t\r\n", "\x0b\r\n", "\x85\r\n"]


@st.composite
def _head_with_a_body_drawn_from_it(draw, start_lines, fields, prefixes=("",)):
    start, prefix = draw(st.sampled_from(start_lines)), draw(st.sampled_from(prefixes))
    lines = draw(st.lists(st.tuples(st.sampled_from(_FIELD_BREAKS), st.sampled_from(fields)), max_size=4))

    def head(n):
        return start + "".join(brk + field.format(n=n) for brk, field in lines) + "\r\n\r\n"

    body = prefix + head(0)
    return (head(len(body)) + body).encode("latin-1")


@settings(max_examples=300, derandomize=True, deadline=None)
@given(data=_head_with_a_body_drawn_from_it(_START_LINES, _SIZED_FIELDS), size=st.integers(1, 64))
def test_upstream_parses_only_the_verified_request_of_a_head_with_a_body_drawn_from_it(data, size):
    head, forwarded = proxy_forwards(data, size)
    if forwarded:
        parsed = _RecordingHandler(forwarded).parsed
        assert parsed in ([], [None], [(head.method, head.target)]), (forwarded, parsed)


def proxy_relays(data: bytes, size: int, method: str):
    """(status, bytes sent to the client) for an upstream that sends data in
    pieces of size bytes in answer to method, framed as the proxy frames a
    response (Connection.read_response_head, then one Connection.relay);
    None when the proxy answers 502, or closes the client's connection on
    broken chunked framing or a body the upstream cut short."""
    conn, sent = Connection(_PieceSocket(data, size)), []
    try:
        head, status, _, length = conn.read_response_head(method, sent.append)
        whole = conn.relay(None if status == 101 else length, sent.append, head)
    except ValueError:
        return None
    return (status, b"".join(sent)) if whole else None


class _Unclosed(io.BytesIO):
    def close(self):  # http.client closes its file once it has read the body
        pass


class _BytesSocket:
    def __init__(self, data: bytes):
        self.file = _Unclosed(data)

    def makefile(self, mode):
        return self.file


# status lines, fields and body prefixes for the response side, so a
# copy of the head follows a chunked body too.  Status lines leave out 101,
# after which the bytes speak another protocol, and every 1xx but 100
# before the final head, which http.client takes as final.
_STATUS_LINES = ["HTTP/1.1 200 OK"] * 4 + [
    "HTTP/1.1 204 No Content", "HTTP/1.1 304 Not Modified", "HTTP/1.0 200 OK", "HTTP/1.1 302 Found",
    "HTTP/1.1 200", "\r\nHTTP/1.1 200 OK", "HTTP/1.1 200 OK\r",
    "HTTP/1.1 100 Continue\r\n\r\nHTTP/1.1 200 OK"]
_RESPONSE_FIELDS = ["Server: x", "Content-Length: 0", "Content-Length: {n}", "Content-Length: {n}",
                    "Transfer-Encoding: chunked", "Transfer-Encoding: chunked", "Transfer-Encoding: gzip",
                    "Transfer-Encoding: gzip, chunked", "Transfer-Encoding: chunked, gzip", "Set-Cookie: a=b"]
_BODY_PREFIXES = ["", "hello", "5\r\nhello\r\n0\r\n\r\n", "0\r\nX-T: 1\r\n\r\n"]


@settings(max_examples=300, derandomize=True, deadline=None)
@given(data=_head_with_a_body_drawn_from_it(_STATUS_LINES, _RESPONSE_FIELDS, _BODY_PREFIXES),
       size=st.integers(1, 64), method=st.sampled_from(["GET", "GET", "HEAD"]))
def test_client_reads_one_response_as_the_proxy_framed_it(data, size, method):
    # http.client reads what the proxy relays as one response, of the
    # status the proxy read, with no byte left over
    relayed = proxy_relays(data, size, method)
    if relayed is not None:
        status, sent = relayed
        client = _BytesSocket(sent)
        response = http.client.HTTPResponse(client, method=method)
        response.begin()
        response.read()
        assert (response.status, client.file.read()) == (status, b""), sent


@pytest.mark.parametrize("status, expected", [
    (302, "abc"), (301, "abc"), (303, "abc"), (200, None), (307, None), (403, None),
])
def test_login_succeeded_only_on_a_redirect_that_sets_the_cookie(status, expected):
    assert login_succeeded(status, [("Set-Cookie", "PHPSESSID=abc; Path=/")]) == expected
    assert login_succeeded(status, [("Set-Cookie", "MYSESS=abc")], "MYSESS") == expected
    assert login_succeeded(status, [("Location", "/Home.php")]) is None


# -- request id derivation ----------------------------------------------------


def test_derive_request_id_examples():
    assert request_id("GET", "/app/Home.php") == "GET_Home.php"
    assert request_id("post", "/Login.php") == "POST_Login.php"
    assert request_id("GET", "/Home.php?id=3&x=1") == "GET_Home.php"
    assert request_id("GET", "/") == "GET_index.php"
    assert request_id("GET", "/a/b/c.php#frag") == "GET_c.php"


@pytest.mark.parametrize("target, goes_past", [
    ("/About.php", False), ("/admin/Delete.php", False), ("/", False), ("/x/", False),
    ("/a/./About.php", False), ("/a/../About.php", False), ("/About.php?next=/Secret.php/x", False),
    ("http://app.local/About.php", False), ("/About.php;x", False), ("/About%2ephp", False),
    ("/Secret.php/About.php", True), ("/admin/Secret.php/x/About.php", True), ("/Secret.php/", True),
    ("/Secret.php/.", True), ("/Secret.php/../About.php", True), ("/SECRET.PHP/About.php", True),
    ("/Secret%2ephp/About.php", True), ("/Secret.php%2fAbout.php", True), ("/Secret.php%5cAbout.php", True),
    ("/Secret.php\\About.php", True), ("/Secret.php;x/About.php", True), ("/Secret.phtml/About.php", True),
    ("http://app.local/Secret.php/About.php", True), ("http://app.photos/About.php", True),
])
def test_goes_past_script(target, goes_past):
    assert http1.goes_past_script(target) is goes_past


def test_derive_request_id_empty_method_rejected():
    with pytest.raises(ValueError):
        request_id("", "/Home.php")


def test_page_of():
    assert page_of("/x/About.php?q=1") == "About.php"
    assert page_of("/") == "index.php"


# -- store --------------------------------------------------------------------


def test_record_exchange_writes_paired_files(tmp_path):
    store = ProfileStore(tmp_path)
    store.begin_trail("0")
    cid = store.record_exchange(head_text("/About.php"), "0")
    assert cid == 1
    assert (tmp_path / "1_request").exists()
    assert (tmp_path / "1_Srequest").read_text() == "0"
    raw, flag = store.read_exchange(1)
    assert "GET /About.php HTTP/1.1" in raw
    assert flag == 0


def test_ids_strictly_increase_across_reopen(tmp_path):
    store = ProfileStore(tmp_path)
    store.begin_trail("0")
    first = store.record_exchange(head_text("/a.php"), "0")
    second = store.record_exchange(head_text("/b.php"), "0")
    assert second == first + 1

    reopened = ProfileStore(tmp_path)
    reopened.begin_trail("0")
    third = reopened.record_exchange(head_text("/c.php"), "0")
    assert third == second + 1
    assert reopened.recorded_ids() == [1, 2, 3]


def test_trails_and_roles_survive_reload(tmp_path):
    store = ProfileStore(tmp_path)
    store.begin_trail("0")
    store.record_exchange(head_text("/About.php"), "0")
    store.begin_trail("manager")
    store.record_exchange(head_text("/Home.php", cookie="PHPSESSID=aa"), "manager")
    store.record_exchange(head_text("/View.php", cookie="PHPSESSID=aa"), "manager")
    store.begin_trail("manager")
    store.record_exchange(head_text("/Home.php", cookie="PHPSESSID=aa"), "manager")

    reopened = ProfileStore(tmp_path)
    assert list(dict.fromkeys(t.role for t in reopened.trails)) == ["0", "manager"]
    assert [(t.role, t.pages) for t in reopened.trails] == [
        ("0", ["About.php"]),
        ("manager", ["Home.php", "View.php"]),
        ("manager", ["Home.php"]),
    ]
    role_by_id = {cid: role for role, records in reopened.trail_records() for cid, _, _ in records}
    assert role_by_id[1] == "0"
    assert role_by_id[3] == "manager"


def test_recording_without_begin_extends_latest_trail_for_role(tmp_path):
    # implicit trail: recording with no begin_trail opens one
    store = ProfileStore(tmp_path)
    store.record_exchange(head_text("/a.php"), "0")
    store.record_exchange(head_text("/b.php"), "0")
    assert [(t.role, t.pages) for t in store.trails] == [("0", ["a.php", "b.php"])]


def test_role_xml_shape(tmp_path):
    store = ProfileStore(tmp_path)
    store.begin_trail("manager")
    store.record_exchange(head_text("/Home.php", cookie="PHPSESSID=aa"), "manager")
    store.record_exchange(head_text("/View.php", cookie="PHPSESSID=aa"), "manager")
    text = (tmp_path / "manager.xml").read_text()
    assert '<Sequences role="manager">' in text
    assert "<Trail>Home.php, View.php</Trail>" in text


def test_trail_records_replay_view(tmp_path):
    store = ProfileStore(tmp_path)
    store.begin_trail("0")
    store.record_exchange(head_text("/a.php"), "0")
    store.begin_trail("manager")
    store.record_exchange(head_text("/Home.php", cookie="PHPSESSID=aa"), "manager")
    records = store.trail_records()
    assert [role for role, _ in records] == ["0", "manager"]
    (cid, raw, flag) = records[1][1][0]
    assert cid == 2
    assert flag == 1
    assert raw.startswith("GET /Home.php")


def test_missing_flag_file_is_reported_by_id(tmp_path):
    store = ProfileStore(tmp_path)
    store.begin_trail("0")
    cid = store.record_exchange(head_text("/a.php"), "0")
    (tmp_path / f"{cid}_Srequest").unlink()
    with pytest.raises(ValueError, match=f"{cid}_Srequest"):
        store.read_exchange(cid)


def test_missing_request_file_is_reported_by_id(tmp_path):
    # an index that covers a deleted exchange fails closed
    store = ProfileStore(tmp_path)
    for target in ("/a.php", "/b.php"):
        store.record_exchange(head_text(target), "0")
    (tmp_path / "2_request").unlink()
    with pytest.raises(ValueError, match="communication id 2 has no 2_request"):
        store.read_exchange(2)
    with pytest.raises(ValueError, match="communication id 2 has no 2_request"):
        build_model(ProfileStore(tmp_path))


@pytest.mark.parametrize("flag", ["x", "", "1.0"])
def test_flag_file_that_holds_no_integer_is_reported_by_id(tmp_path, flag):
    store = ProfileStore(tmp_path)
    for target in ("/a.php", "/b.php"):
        store.record_exchange(head_text(target), "0")
    (tmp_path / "2_Srequest").write_text(flag)
    message = f"store {tmp_path}: communication id 2 has a 2_Srequest that holds no integer: {flag!r}"
    with pytest.raises(ValueError) as raised:
        store.read_exchange(2)
    assert str(raised.value) == message
    with pytest.raises(ValueError) as raised:
        build_model(ProfileStore(tmp_path))
    assert str(raised.value) == message


def test_a_trail_is_made_by_its_first_exchange(tmp_path):
    store = ProfileStore(tmp_path)
    store.begin_trail("0")
    assert store.trails == []
    store.record_exchange(head_text("/a.php"), "0")
    store.begin_trail("manager")
    store.begin_trail("0")
    assert persisted(store.trails) == [("0", 1, 1, ["a.php"])]
    store.record_exchange(head_text("/b.php"), "0")
    assert persisted(store.trails) == [("0", 1, 1, ["a.php"]), ("0", 2, 2, ["b.php"])]
    assert (tmp_path / "trails").read_text() == "0\t1\t1\n0\t2\t2\n"


@pytest.mark.parametrize("index, lineno", [
    ("0\t1\t2\n0\t2\t3\n", 2),  # overlaps the line before
    ("0\t3\t3\n0\t1\t2\n", 2),  # comes before it
    ("0\t1\t1\n\n0\t1\t1\n", 3),  # repeats it, past a blank line
    ("0\t2\t1\n", 1),  # an empty range
    ("0\t0\t1\n", 1),  # ids start at 1
])
def test_reopen_refuses_trail_ranges_out_of_id_order(tmp_path, index, lineno):
    (tmp_path / "trails").write_text(index)
    with pytest.raises(ValueError, match=f"trails: line {lineno}: ids .* overlap or precede"):
        ProfileStore(tmp_path)


def test_reopen_refuses_a_role_file_cut_off_halfway(tmp_path):
    ProfileStore(tmp_path).record_exchange(head_text("/a.php"), "0")
    role_xml = (tmp_path / "0.xml").read_bytes()
    (tmp_path / "0.xml").write_bytes(role_xml[:len(role_xml) // 2])
    with pytest.raises(ValueError, match=r"0\.xml: "):
        ProfileStore(tmp_path)


_UNNAMEABLE_ROLES = ["", ".", "..", "../escaped", "a/b", "a\\b", "a\tb", "a\nb", "a\rb", "a\x00b", "a\x7fb", "a\x85b",
                     pytest.param("r" * 300, id="r*300")]


@pytest.mark.parametrize("role", _UNNAMEABLE_ROLES)
def test_a_role_that_cannot_name_a_file_is_refused(tmp_path, role):
    directory = tmp_path / "store"
    store = ProfileStore(directory)
    with pytest.raises(ValueError, match="^role "):
        store.record_exchange(head_text("/a.php"), role)
    assert os.listdir(directory) == []
    assert os.listdir(tmp_path) == ["store"]
    assert store.trails == [] and store.recorded_ids() == []


# those of _UNNAMEABLE_ROLES that can sit inside one `trails` line
@pytest.mark.parametrize("role", ["", ".", "..", "../escaped", "a/b", "a\\b", "a\x00b", "a\x7fb", "a\x85b"])
def test_reopen_refuses_an_index_line_with_a_role_that_cannot_name_a_file(tmp_path, role):
    (tmp_path / "trails").write_text(f"0\t1\t1\n{role}\t2\t2\n", encoding="utf-8")
    with pytest.raises(ValueError, match="trails: line 2: role "):
        ProfileStore(tmp_path)


@pytest.mark.parametrize("role", ["0", "manager", "a b", "..a", "a.", 'a"&<b', "r\xf4le", "a\u2028b"])
def test_a_role_that_names_a_file_is_recorded(tmp_path, role):
    ProfileStore(tmp_path).record_exchange(head_text("/a.php"), role)
    assert persisted(ProfileStore(tmp_path).trails) == [(role, 1, 1, ["a.php"])]


def test_custom_session_cookie_name(tmp_path):
    store = ProfileStore(tmp_path, session_cookie_name="MYSESS")
    store.begin_trail("0")
    cid = store.record_exchange(head_text("/a.php", cookie="MYSESS=zz"), "0")
    _, flag = store.read_exchange(cid)
    assert flag == 1


def test_recording_under_another_role_starts_a_new_trail(tmp_path):
    # role 0 recorded after a manager trail began must not extend role 0's
    # older trail: the id ranges would overlap and id 2 would go to role 0
    store = ProfileStore(tmp_path)
    store.begin_trail("0")
    store.record_exchange(head_text("/a.php"), "0")
    store.begin_trail("manager")
    store.record_exchange(head_text("/Home.php", cookie="PHPSESSID=aa"), "manager")
    store.record_exchange(head_text("/c.php"), "0")
    assert (tmp_path / "trails").read_text() == "0\t1\t1\nmanager\t2\t2\n0\t3\t3\n"
    assert (tmp_path / "0.xml").read_text() == (
        '<Sequences role="0">\n  <Trail>a.php</Trail>\n  <Trail>c.php</Trail>\n</Sequences>\n')
    assert [role for role, _ in store.trail_records()] == ["0", "manager", "0"]
    assert [[cid for cid, _, _ in records] for _, records in store.trail_records()] == [[1], [2], [3]]
    model1, _ = build_model(store)
    assert [(r.reqresid, r.session_flag, r.role) for r in model1.rows] == [
        ("GET_a.php", 0, "0"), ("GET_Home.php", 1, "manager"), ("GET_c.php", 0, "0")]


@pytest.mark.parametrize("as_text", [False, True], ids=["Path", "str"])
def test_store_in_a_directory_with_a_space_and_non_ascii_name(tmp_path, as_text):
    directory = tmp_path / "training st\xf6re"
    opened = str(directory) if as_text else directory
    store = ProfileStore(opened)
    assert isinstance(store.directory, Path) and store.directory == directory
    store.begin_trail("0")
    store.record_exchange(head_text("/a.php"), "0")
    store.record_exchange(head_text("/b.php"), "0")
    store = ProfileStore(opened)
    assert isinstance(store.directory, Path) and store.directory == directory
    store.record_exchange(head_text("/c.php"), "0")
    assert sorted(os.listdir(directory)) == [
        "0.xml", "1_Srequest", "1_request", "2_Srequest", "2_request", "3_Srequest", "3_request", "trails"]
    assert (directory / "trails").read_text() == render_index(store.trails) == "0\t1\t2\n0\t3\t3\n"
    assert (directory / "0.xml").read_text() == render_role_xml(store.trails, "0")
    assert store.read_exchange(3) == (head_text("/c.php").replace("\r\n", "\n"), 0)
    model1, nav = build_model(store)
    assert [(r.convid, r.reqresid) for r in model1.rows] == [(1, "GET_a.php"), (2, "GET_b.php"), (3, "GET_c.php")]
    assert nav.graphs["0"] == {"a.php": ["b.php"]}


# -- store files against a full re-render ---------------------------------------


def render_index(trails):
    """The `trails` index as rendered from every trail at once."""
    lines = [f"{t.role}\t{t.first_id}\t{t.last_id}" for t in trails if t.first_id is not None]
    return "\n".join(lines) + "\n" if lines else ""


def render_role_xml(trails, role):
    """One role's `<role>.xml` as rendered from every trail at once."""
    parts = [f'<Sequences role="{xml_escape(role, {chr(34): "&quot;"})}">']
    for trail in trails:
        if trail.role == role and trail.pages:
            parts.append(f"  <Trail>{xml_escape(', '.join(trail.pages))}</Trail>")
    parts.append("</Sequences>")
    return "\n".join(parts) + "\n"


_ROLES = ["0", "manager", 'a"&<b']
_TARGETS = ["/a.php", "/", "/b&c.php?x=1", "/<x>.php", "/d/e.php"]
_STEPS = st.lists(st.one_of(
    st.tuples(st.just("begin"), st.sampled_from(_ROLES)),
    st.tuples(st.just("record"), st.sampled_from(_ROLES), st.sampled_from(_TARGETS),
              st.sampled_from([None, "PHPSESSID=aa"])),
    st.tuples(st.just("reopen")),
), max_size=25)


def persisted(trails):
    return [(t.role, t.first_id, t.last_id, t.pages) for t in trails if t.first_id is not None]


@settings(max_examples=60, deadline=None)
@given(_STEPS)
def test_store_files_equal_a_full_render_after_every_step(steps):
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        store = ProfileStore(directory)
        rows = []  # the model rows the steps recorded: (sno, id, request id, flag, role)
        for step in steps:
            if step[0] == "begin":
                store.begin_trail(step[1])
            elif step[0] == "record":
                head = head_text(step[2], cookie=step[3])
                cid = store.record_exchange(head, step[1])
                key = request_key(parse_header_block(head))
                rows.append((len(rows) + 1, cid, key.request_id, int(key.cookie is not None), step[1]))
            else:
                store = ProfileStore(directory)
            if not store.recorded_ids():
                continue
            assert (directory / "trails").read_text() == render_index(store.trails)
            recorded_roles = {t.role for t in store.trails if t.pages}
            assert {p.stem for p in directory.glob("*.xml")} == recorded_roles
            for role in recorded_roles:
                assert (directory / f"{role}.xml").read_text() == render_role_xml(store.trails, role)
            assert persisted(ProfileStore(directory).trails) == persisted(store.trails)
            model1, _ = build_model(store)
            assert [tuple(row) for row in model1.rows] == rows


def test_one_more_exchange_escapes_only_its_own_page(tmp_path, monkeypatch):
    store = ProfileStore(tmp_path)
    for _ in range(2000):
        store.begin_trail("0")
        store.record_exchange(head_text("/a.php"), "0")
    calls = []

    def counting_escape(*args):
        calls.append(args)
        return xml_escape(*args)

    monkeypatch.setattr(profile_store, "xml_escape", counting_escape)
    store.record_exchange(head_text("/b.php"), "0")
    assert len(calls) <= 2
    assert (tmp_path / "0.xml").read_text().endswith("  <Trail>a.php, b.php</Trail>\n</Sequences>\n")


def test_one_more_exchange_writes_only_the_newest_trail(tmp_path, monkeypatch):
    store = ProfileStore(tmp_path)
    for _ in range(2000):
        store.begin_trail("0")
        store.record_exchange(head_text("/a.php"), "0")
    written = {}
    write = profile_store._write

    def counting_write(path, data, *args):
        name = os.path.basename(path)
        written[name] = written.get(name, 0) + len(data)
        return write(path, data, *args)

    monkeypatch.setattr(profile_store, "_write", counting_write)
    store.begin_trail("0")
    store.record_exchange(head_text("/b.php"), "0")
    assert written["trails"] + written["0.xml"] < 200
    assert (tmp_path / "trails").read_text() == render_index(store.trails)
    assert (tmp_path / "0.xml").read_text() == render_role_xml(store.trails, "0")


def test_newest_trail_is_written_at_its_byte_offset(tmp_path):
    # sealed trails with multi-byte UTF-8 in both files: offsets count bytes
    store = ProfileStore(tmp_path)
    for role, target in [("r\xf4le", "/caf\xe9.php"), ("0", "/\xfc.php"), ("r\xf4le", "/a.php"), ("0", "/b.php")]:
        store.begin_trail(role)
        store.record_exchange(head_text(target), role)
        assert (tmp_path / "trails").read_text(encoding="utf-8") == render_index(store.trails)
        for name in ("0", "r\xf4le"):
            if (tmp_path / f"{name}.xml").exists():
                assert (tmp_path / f"{name}.xml").read_text(encoding="utf-8") == render_role_xml(store.trails, name)


def test_first_write_after_reopen_rewrites_the_whole_file(tmp_path):
    # blank lines that the reopened store skips, and so would not render:
    # the store's first write of each file must replace them all
    store = ProfileStore(tmp_path)
    store.begin_trail("0")
    store.record_exchange(head_text("/a.php"), "0")
    store.record_exchange(head_text("/b.php"), "0")
    store.begin_trail("manager")
    store.record_exchange(head_text("/Home.php", cookie="PHPSESSID=aa"), "manager")
    for name in ("trails", "0.xml"):
        with open(tmp_path / name, "a") as fh:
            fh.write("\n" * 40)
    store = ProfileStore(tmp_path)
    for target in ("/c.php", "/d.php"):
        store.record_exchange(head_text(target), "0")
        assert (tmp_path / "trails").read_text() == render_index(store.trails)
        assert (tmp_path / "0.xml").read_text() == render_role_xml(store.trails, "0")


@pytest.mark.parametrize("name", ["trails", "0.xml"])
def test_failed_write_keeps_the_earlier_trails(tmp_path, monkeypatch, name):
    # the write fails once the file is open: no earlier trail may be lost
    store = ProfileStore(tmp_path)
    for role, targets in [("0", ["/a.php", "/b.php"]), ("manager", ["/Home.php"]), ("0", ["/c.php", "/d.php"])]:
        store.begin_trail(role)
        for target in targets:
            store.record_exchange(head_text(target), role)
    before = [(role, first, last, list(pages)) for role, first, last, pages in persisted(store.trails)]
    pwrite = os.pwrite

    def failing_pwrite(fd, data, offset):
        if os.path.samestat(os.fstat(fd), os.stat(tmp_path / name)):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return pwrite(fd, data, offset)

    monkeypatch.setattr(os, "pwrite", failing_pwrite)
    with pytest.raises(OSError):
        store.record_exchange(head_text("/e.php"), "0")
    monkeypatch.undo()
    # after a failed `trails` write the role's XML, written first, holds a
    # page that no id covers: the reopened trail drops it
    assert persisted(ProfileStore(tmp_path).trails) == before


@pytest.mark.parametrize("name", ["trails", "0.xml"])
def test_failed_first_write_after_a_reopen_keeps_the_earlier_trails(tmp_path, monkeypatch, name):
    # a reopened store writes each growing file whole on its first exchange;
    # a fault in that write must leave the file as it was, not emptied
    store = ProfileStore(tmp_path)
    for role, targets in [("0", ["/a.php", "/b.php"]), ("manager", ["/Home.php"])]:
        store.begin_trail(role)
        for target in targets:
            store.record_exchange(head_text(target), role)
    before = persisted(store.trails)
    store = ProfileStore(tmp_path)
    pwrite = os.pwrite

    def failing_pwrite(fd, data, offset):
        # the whole write of name, or of a temporary file named after it
        if offset == 0 and any(path.name.startswith(name) and os.path.samestat(os.fstat(fd), path.stat())
                               for path in tmp_path.iterdir()):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return pwrite(fd, data, offset)

    monkeypatch.setattr(os, "pwrite", failing_pwrite)
    with pytest.raises(OSError):
        store.record_exchange(head_text("/c.php"), "0")
    monkeypatch.undo()
    reopened = ProfileStore(tmp_path)
    assert persisted(reopened.trails) == before
    # what the failed write left behind is no role and no exchange
    assert list(dict.fromkeys(t.role for t in reopened.trails)) == ["0", "manager"]
    assert reopened.recorded_ids() == [1, 2, 3, 4]
    reopened.record_exchange(head_text("/d.php"), "0")
    assert (tmp_path / "trails").read_text() == render_index(reopened.trails)
    assert (tmp_path / "0.xml").read_text() == render_role_xml(reopened.trails, "0")


@pytest.mark.parametrize("head, expected", [
    ("GET /a.php HTTP/1.1\r\nHost: app.local\r\n\r\n", ("GET /a.php HTTP/1.1\nHost: app.local\n\n", 0)),
    # a bare CR is refused before anything is written: read back as LF, the
    # `2` line would have no colon, and build-model could not parse the store
    ("GET /b.php HTTP/1.1\r\nHost: app.local\r\nX-A: 1\r2\r\n\r\n",
     pytest.raises(ValueError, match="bare CR")),
    ("GET /caf\xe9.php HTTP/1.1\r\nHost: app.local\r\nCookie: PHPSESSID=\xfc\xff\r\n\r\n",
     ("GET /caf\xe9.php HTTP/1.1\nHost: app.local\nCookie: PHPSESSID=\xfc\xff\n\n", 1)),
])
def test_read_exchange_reads_utf8_with_newlines_translated(tmp_path, head, expected):
    if not isinstance(expected, tuple):
        with expected:
            ProfileStore(tmp_path).record_exchange(head, "0")
        assert list(tmp_path.iterdir()) == []
        return
    cid = ProfileStore(tmp_path).record_exchange(head, "0")
    assert (tmp_path / f"{cid}_request").read_bytes() == head.encode("utf-8")
    assert ProfileStore(tmp_path).read_exchange(cid) == expected
    assert expected[0] == (tmp_path / f"{cid}_request").read_text(encoding="utf-8")


@settings(max_examples=300, deadline=None)
@given(text=st.text(st.one_of(st.sampled_from('&<>"\'; '), st.characters())))
def test_xml_escape_matches_saxutils(text):
    assert profile_store.xml_escape(text) == xml_escape(text)
    assert profile_store.xml_escape(text, {'"': "&quot;"}) == xml_escape(text, {'"': "&quot;"})
