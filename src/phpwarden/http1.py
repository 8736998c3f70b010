"""HTTP/1.1 on the wire, and the session rules read from it: the proxy and
the clients read messages with nothing else; the enforcer, the training
store and the model builder key requests by request_key; the demo app reads
with http.server and takes its cookie, page and login rules from here.

_split_head splits a head into its start line and fields;
parse_header_block frames a request (any Transfer-Encoding refused, no
Content-Length is an empty body) and parse_response_head a response (RFC
9112 section 6.3).  A Connection reads messages from a socket: read_head
reads a head up to its first blank line, and cuts it off before one with a
bare LF in it, so that head is refused; read_response_head reads the final
response head past any interim ones; relay passes a body by its length,
until close, or chunked (RFC 9112 section 7.1), and reports whether the
peer cut it short.  The bytes a Connection reads past a head or a body stay
in its buf, where the next message starts.
SESSION_COOKIE names the session cookie by default; set_cookie_value and
login_succeeded read what a response grants; LOGIN_PAGE and LOGOUT_PAGE
name the pages where a session starts and ends, and LOGIN_FIELDS the login
form's fields.  page_of names the page a request target asks for, and
goes_past_script tells when a PHP upstream would run another one.
"""

from __future__ import annotations

import re
import time
from collections import namedtuple
from urllib.parse import parse_qs, unquote


class RequestHead(namedtuple("RequestHead", "method target version headers content_length",
                             defaults=(0,))):
    """Parsed request head: request line, ordered header fields (a tuple of
    (name, value) pairs), declared body length.  A tuple, so it is
    immutable, and cheap to build once per request."""

    __slots__ = ()

    def get(self, name: str) -> str | None:
        """The first field named name, in any letter case, else None."""
        lname = name.lower()
        for k, v in self.headers:
            if k.lower() == lname:
                return v
        return None


def _split_head(text: str) -> tuple[str, list[tuple[str, str]]]:
    """(start line, (name, value) fields) of a raw message head.  The head
    ends at the first empty or whitespace-only line, and a line break must
    end that line too.  Anything but blank lines after it is refused, not
    dropped: the proxy relays the raw bytes it framed, so a message hidden
    behind a bare-LF blank line would otherwise pass unverified.  A bare CR
    in the start line or a field line is refused too (RFC 9112 section
    2.2): a peer that takes it as a line break would read fields this
    parser never saw.  So is an empty or whitespace-only line before the
    start line: http.server reads it as an empty request, not as the one
    verified.  Raises ValueError on a cut-off head or a line that is not
    `name: value` with a name that neither starts nor ends with
    whitespace."""
    lines = text.replace("\r\n", "\n").split("\n")
    if not lines[0].strip():
        raise ValueError("head starts with an empty line")
    fields: list[tuple[str, str]] = []
    rest = iter(lines[1:-1])  # no line break ends lines[-1]
    for line in rest:
        if not line.strip():
            break
        name, colon, value = line.partition(":")
        # RFC 9112 sections 5.1 and 5.2: no whitespace before the colon, no obs-fold
        if not colon or not name or name != name.strip():
            raise ValueError(f"malformed header line: {line!r}")
        if "\r" in line:
            raise ValueError(f"bare CR in header line: {line!r}")
        fields.append((name, value.strip(" \t")))  # RFC 9110 section 5.5: OWS is SP and HTAB
    else:
        raise ValueError("head cut off before its blank line")
    if "\r" in lines[0]:
        raise ValueError(f"bare CR in start line: {lines[0]!r}")
    if any(extra.strip() for extra in rest) or lines[-1].strip():
        raise ValueError("text after the blank line that ends the head")
    return lines[0], fields


def parse_header_block(text: str) -> RequestHead:
    """Parse a raw request head split by _split_head.  Ambiguous framing is
    refused (RFC 9112 section 11.2): any Transfer-Encoding, or a
    Content-Length declared_length refuses.  Raises ValueError on a
    malformed or cut-off head; callers on the enforcement path map that to
    a block verdict rather than a crash."""
    start, fields = _split_head(text)
    parts = start.split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/"):
        raise ValueError(f"malformed request line: {start!r}")
    lengths = []
    for name, value in fields:
        lname = name.lower()
        if lname == "transfer-encoding":
            raise ValueError("Transfer-Encoding framing is refused")
        if lname == "content-length":
            lengths.append(value)
    return RequestHead(*parts, tuple(fields), declared_length(lengths) if lengths else 0)


CHUNKED = -1  # the body length parse_response_head gives a chunked body
_HEAD_LIMIT = 65536
_PIECE = 65536
# a line _split_head takes as blank: empty, or whitespace only in latin-1
_BLANK_LINE = re.compile(rb"\n[\t\x0b\x0c\r\x1c-\x1f \x85\xa0]*\n")
_LINE_SPACE = re.compile(rb"[\t\x0b\x0c\r\x1c-\x1f \x85\xa0]*")
_STATUS_LINE = re.compile(r"HTTP/[0-9]\.[0-9] ([1-5][0-9][0-9])(?: |$)")


def parse_response_head(text: str, method: str) -> tuple[int, list[tuple[str, str]], int | None, bool]:
    """(status, fields, body length, mixed) of a raw response head to
    method, split by _split_head and framed by RFC 9112 section 6.3: the
    length is 0 after HEAD or for a 1xx, 204 or 304, CHUNKED for a final
    chunked coding, None (until close) for any other Transfer-Encoding or no
    Content-Length.  mixed tells whether a Transfer-Encoding is not all that
    frames the body: beside a Content-Length, in a second field line, or on
    a 204 or 304, which have none.  One pass over the fields finds both.
    Raises ValueError as _split_head does and on a bad status line or
    Content-Length."""
    start, fields = _split_head(text)
    match = _STATUS_LINE.match(start)
    if not match:
        raise ValueError(f"malformed status line: {start!r}")
    status = int(match[1])
    codings, lengths = [], []
    for name, value in fields:
        lname = name.lower()
        if lname == "transfer-encoding":
            codings.append(value)
        elif lname == "content-length":
            lengths.append(value)
    mixed = bool(codings) and (len(codings) + len(lengths) > 1 or status in (204, 304))
    if method == "HEAD" or status < 200 or status in (204, 304):
        return status, fields, 0, mixed
    if codings:  # only a final chunked coding frames the body
        final = codings[-1].rsplit(",", 1)[-1].strip().lower()
        return status, fields, CHUNKED if final == "chunked" else None, mixed
    return status, fields, declared_length(lengths) if lengths else None, mixed


class Connection:
    """A socket and buf, the bytes read from it past the last head or body
    a method read: the next message starts there, and a method reads buf
    before it reads the socket."""

    __slots__ = ("sock", "buf")

    def __init__(self, sock):
        self.sock = sock
        self.buf = b""

    def read_head(self, deadline: float | None = None) -> bytes:
        """The bytes up to and including the first blank line; those after
        it stay in buf.  A blank line other than a bare CRLF (a bare LF, or
        whitespace in it) ends the read but not the head: the head comes
        back cut off before it, and buf empty, so every parser refuses it.
        A peer that ends heads only at CRLF CRLF would read what follows,
        even bytes sent later, as more of the head.  A head cut off by the
        peer closing or by _HEAD_LIMIT comes back as it is, with no blank
        line and buf empty; it is empty when the peer closes before sending
        a byte.  With a deadline (a time.monotonic() value) each read waits
        only until then, and a head not complete by then raises
        TimeoutError.

        Each byte received is searched about once: a blank line that ends in
        bytes still to come can only begin at the last LF, and only while
        blank-line whitespace alone follows it."""
        sock = self.sock
        buf, self.buf = bytearray(self.buf), b""
        # no blank line begins before begin, but one may have begun at lf (-1:
        # none) with whitespace alone after it up to begin
        begin, lf = 0, -1
        while True:
            if lf >= 0:
                run = _LINE_SPACE.match(buf, begin).end()
                if run < len(buf):
                    if buf[run] == 10:  # the LF that ends it
                        start, end = lf, run + 1
                        break
                    begin, lf = run, -1
            if lf < 0:
                if blank := _BLANK_LINE.search(buf, begin):
                    start, end = blank.span()
                    break
                lf = buf.rfind(b"\n", begin)
                if lf >= 0 and _LINE_SPACE.match(buf, lf + 1).end() < len(buf):
                    lf = -1
            begin = len(buf)
            if len(buf) > _HEAD_LIMIT:
                return bytes(buf)
            if deadline is not None:
                left = deadline - time.monotonic()
                if left <= 0:
                    raise TimeoutError("head not complete by its deadline")
                sock.settimeout(left)
            chunk = sock.recv(_PIECE)
            if not chunk:
                return bytes(buf)
            buf += chunk
        if buf[start - 1:end] != b"\r\n\r\n":
            return bytes(buf[:start + 1])
        self.buf = bytes(buf[end:])
        return bytes(buf[:end])

    def read_response_head(self, method: str,
                           interim) -> tuple[bytes, int, list[tuple[str, str]], int | None]:
        """(head, status, fields, body length) of the final response to
        method, read by read_head and parse_response_head, whose ValueError
        it raises.  Each 1xx head before it but a 101 goes to interim.  A
        final head raises ValueError too when a Transfer-Encoding is not all
        that frames its body: beside a Content-Length, in a second field
        line, or on a 204 or 304, which have none.  The head is passed on as
        it is, and a client that frames the body by the length, by the first
        field alone or by the coding (as http.client does) would read
        another body than the one relayed; RFC 9112 section 6.3 has an
        intermediary drop the length."""
        while True:
            head = self.read_head()
            status, fields, length, mixed = parse_response_head(head.decode("latin-1"), method)
            if status >= 200 or status == 101:
                if mixed:
                    raise ValueError("Transfer-Encoding beside other framing")
                return head, status, fields, length
            interim(head)

    def relay(self, length: int | None, send, prefix: bytes = b"", on_data=None) -> bool:
        """Pass a body to send, after prefix, which goes in the same send
        as the body's first bytes: exactly length bytes, or with length
        None everything until the peer closes, or with length CHUNKED a
        chunked body.  The bytes in buf go first, then pieces of at most
        _PIECE read from the socket.  on_data gets the body's data, without
        chunk framing.  Returns False when a peer that closes early cut it
        short."""
        if length == CHUNKED:
            return self._relay_chunked(send, prefix, on_data)
        if length is None:
            body, self.buf = self.buf, b""
        else:
            body, self.buf = self.buf[:length], self.buf[length:]
            length -= len(body)
        if body and on_data:
            on_data(body)
        if prefix or body:
            send(prefix + body)
        recv = self.sock.recv
        while length is None or length > 0:
            piece = recv(_PIECE if length is None else min(_PIECE, length))
            if not piece:
                return length is None
            if on_data:
                on_data(piece)
            send(piece)
            if length is not None:
                length -= len(piece)
        return True

    def _relay_chunked(self, send, prefix: bytes, on_data) -> bool:
        """relay for a chunked body (RFC 9112 section 7.1), passed on raw:
        each chunk-size line, its data and their CRLF, up to the last chunk
        and the blank line that ends its trailer section.  The bytes framed
        so far go to send before each read.  Raises ValueError on a bad
        chunk-size line, chunk data longer than its size, or a line longer
        than _HEAD_LIMIT."""
        buf, checked, self.buf = prefix + self.buf, len(prefix), b""
        data = 0  # chunk data still to pass
        expect = "size"  # the next line: a chunk size, the CRLF after data, or a trailer line
        while True:
            step = min(data, len(buf) - checked)
            if step and on_data:
                on_data(buf[checked:checked + step])
            checked, data = checked + step, data - step
            end = -1 if data else buf.find(b"\r\n", checked)
            if end < 0:
                if checked:
                    send(buf[:checked])
                    buf, checked = buf[checked:], 0
                if len(buf) > _HEAD_LIMIT:
                    raise ValueError("chunked body line too long")
                piece = self.sock.recv(_PIECE)
                if not piece:
                    return False
                buf += piece
                continue
            line, checked = buf[checked:end], end + 2
            if expect == "size":
                size = line.split(b";", 1)[0].rstrip(b" \t")  # chunk extensions are passed on unread
                if not size or size.strip(b"0123456789abcdefABCDEF"):
                    raise ValueError(f"bad chunk-size line: {line[:40]!r}")
                data = int(size, 16)
                expect = "crlf" if data else "trailer"
            elif line and expect == "crlf":
                raise ValueError("chunk data longer than its chunk size")
            elif not line:
                if expect == "trailer":
                    send(buf[:checked])
                    self.buf = buf[checked:]
                    return True
                expect = "size"


def declared_length(values: list[str]) -> int:
    """The body length in a message's Content-Length field values; raises
    ValueError on more than one field or a value not all ASCII digits."""
    if len(values) != 1:
        raise ValueError(f"{len(values)} Content-Length fields")
    if not (values[0].isascii() and values[0].isdigit()):
        raise ValueError(f"Content-Length {values[0]!r} is not a length")
    return int(values[0])


SESSION_COOKIE = "PHPSESSID"  # the session cookie's name unless another is given
LOGIN_PAGE = "Login.php"  # a POST here with LOGIN_FIELDS logs in
LOGOUT_PAGE = "Logout.php"
LOGIN_FIELDS = ("username", "password")  # the login form's field names
# what the gate checks a request by and training records it under
RequestKey = namedtuple("RequestKey", "request_id page cookie user_agent")


def cookie_value(cookie_header: str, name: str) -> str | None:
    """Value of the first non-empty `name=value` pair in one Cookie header
    (or one Set-Cookie pair), else None."""
    for pair in cookie_header.split(";"):
        cname, _, value = pair.partition("=")
        if cname.strip() == name and value.strip():
            return value.strip()
    return None


def request_key(head: RequestHead, session_cookie_name: str = SESSION_COOKIE) -> RequestKey:
    """head's request id (`METHOD_page`, the method uppercased), page,
    session cookie value (None unless a Cookie field carries a non-empty
    one) and first User-Agent ("" if none), read in one pass over its
    fields.  A parsed head's method is never empty."""
    page = page_of(head.target)
    user_agent = cookie = None
    for name, value in head.headers:
        lname = name.lower()
        if lname == "user-agent":
            if user_agent is None:
                user_agent = value
        elif lname == "cookie" and cookie is None:
            cookie = cookie_value(value, session_cookie_name)
    return RequestKey(f"{head.method.upper()}_{page}", page, cookie, user_agent or "")


def set_cookie_value(headers, session_cookie_name: str = SESSION_COOKIE) -> str | None:
    """The session cookie a response grants: the value of the first
    Set-Cookie field among (name, value) header pairs whose leading pair
    names session_cookie_name with a non-empty value, else None."""
    for name, value in headers:
        if name.lower() == "set-cookie":
            cookie = cookie_value(value.split(";", 1)[0], session_cookie_name)
            if cookie is not None:
                return cookie
    return None


def read_login_form(body: str) -> tuple[str, str]:
    """(username, password) of a urlencoded login POST body, "" if absent."""
    form = parse_qs(body)
    return tuple((form.get(name) or [""])[0] for name in LOGIN_FIELDS)


def login_succeeded(status: int, headers, session_cookie_name: str = SESSION_COOKIE) -> str | None:
    """The session cookie a login response grants, or None: a login
    succeeded only when its response is a 301, 302 or 303 redirect that sets
    the session cookie.  An app that starts a session on its login page
    sets the cookie on a failed login too, and answers that with a 200."""
    return set_cookie_value(headers, session_cookie_name) if status in (301, 302, 303) else None


def page_of(url_path: str) -> str:
    """Final path segment with query dropped; root maps to index.php."""
    path = url_path.split("?", 1)[0].split("#", 1)[0]
    page = path.rsplit("/", 1)[-1]
    return page or "index.php"


def goes_past_script(target: str) -> bool:
    """Whether target's path has a segment after one that names a PHP
    script.  A PHP upstream runs that script and passes the rest as
    PATH_INFO (RFC 3875 section 4.1.5), while page_of names the last
    segment, so the enforcer blocks such a target.  The path, up to any
    `?` or `#`, is percent-decoded once and split at `/` and at `\\`, so
    %2f, %5c and %2e count as what they decode to; a segment names a script
    when it contains `.ph` in any case (.php, .php7, .phtml, .phar, and
    .php;x or .php. with whatever a server may strip after it).  `.` and
    `..` are segments like any other, so Secret.php/../About.php is
    blocked, and in an absolute-form target the scheme and host are
    segments too."""
    path = unquote(target.split("?", 1)[0].split("#", 1)[0]).replace("\\", "/").lower()
    script = path.find(".ph")
    return script >= 0 and "/" in path[script:]
