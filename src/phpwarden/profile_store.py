"""Training-phase capture store.

One directory per training corpus.  Every recorded exchange produces two
files, `<id>_request` (the raw request header block) and `<id>_Srequest`
(the session flag).  Page order is kept per role in `<role>.xml` as a list
of trails: each trail is one root-to-leaf walk of the crawl, so adjacent
pages within a trail are real observed transitions.  A `trails` index file
maps each trail to its role and communication-id range, which is what lets
the model builder attribute ids to roles and a replay harness walk the
exact training traffic again.

Communication ids are unique positive integers, strictly increasing across
the life of the store (reopening continues the counter).

Only the newest trail ever grows: recording under a role other than the
newest trail's starts a new trail, and so does the first recording after
the store is reopened, so trail id ranges never overlap.  Only the newest
trail's text in `trails` (its line) and in its role's XML (its `<Trail>`
line and `</Sequences>`) thus ever changes, and it only grows.  The store
keeps the byte length of every older (sealed) trail's text, and each
exchange writes the newest trail's text at that offset, truncating nothing,
so the files are complete after every exchange.  The first write of a file
by a store writes it whole to a temporary file and renames that over it,
so a failed first write leaves the file as it was.  All text is
UTF-8, and is read back with CRLF and a lone CR as LF.

An exchange is written in a fixed order: `<id>_request`, `<id>_Srequest`,
the role's XML, then the `trails` index.  A run interrupted part-way thus
leaves at most ids that no trail covers; since a reopened store never
extends a trail it read, no later recording covers them either.  The model
builder refuses a store with such an id: an interrupted store fails closed.
Each exchange adds one page to its trail, so a reopened store trims each
trail's pages to its id range: the page of an exchange whose `trails`
write failed after its XML write is dropped with it.

This module is also the one HTTP/1.1 wire path, for the store, the
enforcer, the proxy and the crawler alike.  read_head reads a head from a
socket up to its first blank line, and cuts it off before one with a bare
LF in it, so that head is refused; _split_head splits a head into its start
line and fields; parse_header_block frames a request (any
Transfer-Encoding refused, no Content-Length is an empty body) and
parse_response_head a response (RFC 9112 section 6.3), and
read_response_head reads the final response head past any interim ones.
relay passes a body by its length or until close, and relay_chunked frames
a chunked one; each reports whether the peer cut the body short.
set_cookie_value and login_succeeded read what a response grants;
LOGIN_PAGE and LOGOUT_PAGE name the pages where a session starts and ends.
page_of names the page a request target asks for, and goes_past_script
tells when a PHP upstream would run another one.
"""

from __future__ import annotations

import os
import re
import time
from collections import namedtuple
from pathlib import Path
from urllib.parse import unquote


def xml_escape(data: str, entities: dict[str, str] | None = None) -> str:
    """&, < and > as entities, then each key of entities replaced by its
    value: xml.sax.saxutils.escape, whose module imports urllib.request."""
    data = data.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")
    if entities:
        for key, value in entities.items():
            data = data.replace(key, value)
    return data


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

    def get_all(self, name: str) -> list[str]:
        lname = name.lower()
        return [v for k, v in self.headers if k.lower() == lname]


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


def parse_response_head(text: str, method: str) -> tuple[int, list[tuple[str, str]], int | None]:
    """(status, fields, body length) of a raw response head to method, split
    by _split_head and framed by RFC 9112 section 6.3: 0 after HEAD or for a
    1xx, 204 or 304, CHUNKED for a final chunked coding, None (until close)
    for any other Transfer-Encoding or no Content-Length.  Raises ValueError
    as _split_head does and on a bad status line or Content-Length."""
    return _frame_response(text, method)[:3]


def _frame_response(text: str, method: str) -> tuple[int, list[tuple[str, str]], int | None, bool]:
    """parse_response_head's (status, fields, body length), and whether a
    Transfer-Encoding is not all that frames the body: beside a
    Content-Length, in a second field line, or on a 204 or 304, which have
    none.  One pass over the fields finds both."""
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


def read_head(sock, buf: bytes = b"", deadline: float | None = None) -> tuple[bytes, bytes]:
    """(head, rest): the bytes up to and including the first blank line,
    and whatever arrived after them, reading from sock after the bytes in
    buf.  A blank line other than a bare CRLF (a bare LF, or whitespace in
    it) ends the read but not the head: the head comes back cut off before
    it, and rest empty, so every parser refuses it.  A peer that ends heads
    only at CRLF CRLF would read what follows, even bytes sent later, as
    more of the head.  A head cut off by the peer closing or by _HEAD_LIMIT
    comes back as it is, with no blank line and rest empty; it is empty
    when the peer closes before sending a byte.  With a deadline (a
    time.monotonic() value) each read waits only until then, and a head
    not complete by then raises TimeoutError.

    Each byte received is searched about once: a blank line that ends in
    bytes still to come can only begin at the last LF, and only while
    blank-line whitespace alone follows it."""
    buf = bytearray(buf)
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
            return bytes(buf), b""
        if deadline is not None:
            left = deadline - time.monotonic()
            if left <= 0:
                raise TimeoutError("head not complete by its deadline")
            sock.settimeout(left)
        chunk = sock.recv(_PIECE)
        if not chunk:
            return bytes(buf), b""
        buf += chunk
    if buf[start - 1:end] != b"\r\n\r\n":
        return bytes(buf[:start + 1]), b""
    return bytes(buf[:end]), bytes(buf[end:])


def read_response_head(sock, method: str,
                       interim) -> tuple[bytes, bytes, int, list[tuple[str, str]], int | None]:
    """(head, rest, status, fields, body length) of the final response to
    method, read by read_head and parse_response_head, whose ValueError it
    raises.  Each 1xx head before it but a 101 goes to interim.  A final
    head raises ValueError too when a Transfer-Encoding is not all that
    frames its body: beside a Content-Length, in a second field line, or on
    a 204 or 304, which have none.  The head is passed on as it is, and a
    client that frames the body by the length, by the first field alone or
    by the coding (as http.client does) would read another body than the
    one relayed; RFC 9112 section 6.3 has an intermediary drop the length."""
    rest = b""
    while True:
        head, rest = read_head(sock, rest)
        status, fields, length, mixed = _frame_response(head.decode("latin-1"), method)
        if status >= 200 or status == 101:
            if mixed:
                raise ValueError("Transfer-Encoding beside other framing")
            return head, rest, status, fields, length
        interim(head)


def relay(sock, rest: bytes, length: int | None, send) -> bool:
    """Pass exactly length bytes to send: those in rest first, then pieces of
    at most _PIECE read from sock.  With length None, pass everything until
    the peer closes.  Returns False when a peer that closes early cut it
    short."""
    if length is not None:
        rest = rest[:length]
        length -= len(rest)
    if rest:
        send(rest)
    while length is None or length > 0:
        piece = sock.recv(_PIECE if length is None else min(_PIECE, length))
        if not piece:
            return length is None
        send(piece)
        if length is not None:
            length -= len(piece)
    return True


def relay_chunked(sock, buf: bytes, checked: int, send, on_data=None) -> bool:
    """Pass a chunked body (RFC 9112 section 7.1) to send, raw: each
    chunk-size line, its data and their CRLF, up to the last chunk and the
    blank line that ends its trailer section.  buf holds bytes already read,
    of which the first checked need no framing (the head).  The bytes framed
    so far go to send before each read of a piece of at most _PIECE from
    sock, and the chunk data alone to on_data.  Raises ValueError on a bad
    chunk-size line, chunk data longer than its size, or a line longer than
    _HEAD_LIMIT.  Returns False when a peer that closes early cut it short."""
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
            piece = sock.recv(_PIECE)
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


def cookie_value(cookie_header: str, name: str) -> str | None:
    """Value of the first non-empty `name=value` pair in one Cookie header
    (or one Set-Cookie pair), else None."""
    for pair in cookie_header.split(";"):
        cname, _, value = pair.partition("=")
        if cname.strip() == name and value.strip():
            return value.strip()
    return None


def session_cookie_value(head: RequestHead, session_cookie_name: str = "PHPSESSID") -> str | None:
    for cookie_header in head.get_all("Cookie"):
        value = cookie_value(cookie_header, session_cookie_name)
        if value is not None:
            return value
    return None


def extract_session_flag(head: RequestHead, session_cookie_name: str = "PHPSESSID") -> int:
    """1 iff some Cookie header carries a non-empty pair named
    session_cookie_name, else 0."""
    return int(session_cookie_value(head, session_cookie_name) is not None)


def set_cookie_value(headers, session_cookie_name: str = "PHPSESSID") -> str | None:
    """The session cookie a response grants: the value of the first
    Set-Cookie field among (name, value) header pairs whose leading pair
    names session_cookie_name with a non-empty value, else None."""
    for name, value in headers:
        if name.lower() == "set-cookie":
            cookie = cookie_value(value.split(";", 1)[0], session_cookie_name)
            if cookie is not None:
                return cookie
    return None


LOGIN_PAGE = "Login.php"  # a POST here with username and password logs in
LOGOUT_PAGE = "Logout.php"


def login_succeeded(status: int, headers, session_cookie_name: str = "PHPSESSID") -> str | None:
    """The session cookie a login response grants, or None: a login
    succeeded only when its response is a 301, 302 or 303 redirect that sets
    the session cookie.  An app that starts a session on its login page
    sets the cookie on a failed login too, and answers that with a 200."""
    return set_cookie_value(headers, session_cookie_name) if status in (301, 302, 303) else None


def derive_request_id(method: str, url_path: str, index_page: str = "index.php") -> str:
    """`METHOD_page`: uppercased method, final path segment with the query
    string dropped.  The bare root path maps to index_page."""
    if not method:
        raise ValueError("empty method")
    return f"{method.upper()}_{page_of(url_path, index_page)}"


def page_of(url_path: str, index_page: str = "index.php") -> str:
    """Final path segment with query dropped; root maps to index_page."""
    path = url_path.split("?", 1)[0].split("#", 1)[0]
    page = path.rsplit("/", 1)[-1]
    return page or index_page


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


class Trail:
    """One walk recorded under role: the communication ids it covers, first
    to last (None until its first exchange), and its pages in order."""

    __slots__ = ("role", "first_id", "last_id", "pages")

    def __init__(self, role: str, first_id: int | None = None, last_id: int | None = None,
                 pages: list[str] | None = None):
        self.role = role
        self.first_id = first_id
        self.last_id = last_id
        self.pages = [] if pages is None else pages


_REQUEST_FILE_RE = re.compile(r"^(\d+)_request$")


def _write(path: str, data: bytes, offset: int = 0) -> None:
    """Write data into path at offset, looping over short writes.  Offset 0
    writes the whole file, truncating it first; a later offset truncates
    nothing, so the bytes before it stay as they were."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | (os.O_TRUNC if offset == 0 else 0), 0o666)
    try:
        while data:
            written = os.pwrite(fd, data, offset)
            data, offset = data[written:], offset + written
    finally:
        os.close(fd)


def _read(path: str) -> str:
    """path's text as Path.read_text gives it: UTF-8, with CRLF and a lone
    CR read as LF."""
    fd = os.open(path, os.O_RDONLY)
    try:
        chunks = []
        while chunk := os.read(fd, 1 << 16):
            chunks.append(chunk)
    finally:
        os.close(fd)
    return b"".join(chunks).decode().replace("\r\n", "\n").replace("\r", "\n")


class ProfileStore:
    """Single-writer capture store over one directory.  All state is
    rebuilt from the files on open, so a store can be extended across runs.
    Page names must not contain ", " (the sequence separator)."""

    def __init__(self, directory: str | Path, session_cookie_name: str = "PHPSESSID"):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        # every file path is this prefix and the file's name: no Path is
        # built per exchange
        self._prefix = os.path.join(self.directory, "")
        self.session_cookie_name = session_cookie_name
        self.trails: list[Trail] = []
        # byte length of the sealed text (all but the newest trail) of each
        # growing file this store has written: the `trails` index lines, and
        # per role its XML up to the newest trail
        self._sealed: dict[str, int] = {}
        self._open_pages = ""  # the newest trail's pages, joined and escaped
        self._open: Trail | None = None  # the newest trail, unless read from disk
        self._load()

    def _load(self) -> None:
        self._ids = sorted(
            int(m.group(1)) for m in map(_REQUEST_FILE_RE.match, os.listdir(self.directory)) if m
        )
        self._next_id = (self._ids[-1] if self._ids else 0) + 1
        index = self._prefix + "trails"
        if not os.path.exists(index):
            return
        import xml.etree.ElementTree as ET  # only a reopened store parses XML

        sequences: dict[str, list[list[str]]] = {}
        for role_file in sorted(self.directory.glob("*.xml")):
            root = ET.parse(role_file).getroot()
            role = root.get("role", role_file.stem)
            sequences[role] = [
                [p for p in (el.text or "").split(", ") if p] for el in root
            ]
        consumed: dict[str, int] = {}
        for lineno, line in enumerate(_read(index).splitlines(), start=1):
            if not line.strip():
                continue
            fields = line.split("\t")
            if len(fields) != 3:
                raise ValueError(f"{index}: line {lineno}: expected role, first, last")
            role, first, last = fields
            seq_index = consumed.get(role, 0)
            consumed[role] = seq_index + 1
            role_seqs = sequences.get(role, [])
            first_id, last_id = int(first), int(last)
            # each exchange adds one page; a page past the id range is one
            # whose exchange failed before its index line was written
            pages = role_seqs[seq_index][:last_id - first_id + 1] if seq_index < len(role_seqs) else []
            self._start(Trail(role=role, first_id=first_id, last_id=last_id, pages=pages))

    # -- recording ---------------------------------------------------------

    def begin_trail(self, role: str) -> None:
        """Start a new page sequence for role; subsequent exchanges recorded
        under that role extend it."""
        self._open = Trail(role=role)
        self._start(self._open)

    def _start(self, trail: Trail) -> None:
        """Seal the newest trail, adding the byte length of its text to each
        growing file this store has written, and append trail."""
        if self.trails:
            sealed = self.trails[-1]
            if sealed.first_id is not None:
                self._seal("trails", self._index_line(sealed))
            if sealed.pages:
                self._seal(f"{sealed.role}.xml", self._xml_line(self._open_pages))
        self.trails.append(trail)
        self._open_pages = xml_escape(", ".join(trail.pages)) if trail.pages else ""

    def record_exchange(self, request_headers: str, role: str) -> int:
        """Persist one captured request under the next communication id and
        append its page to the newest trail.  A new trail starts when the
        newest one belongs to another role or was read from disk.  Write
        failures propagate and abort the run."""
        head = parse_header_block(request_headers)
        flag = extract_session_flag(head, self.session_cookie_name)
        if self._open is None or self._open.role != role:
            self.begin_trail(role)
        trail = self._open
        cid = self._next_id
        self._next_id += 1
        _write(f"{self._prefix}{cid}_request", request_headers.encode())
        self._ids.append(cid)
        _write(f"{self._prefix}{cid}_Srequest", str(flag).encode())
        if trail.first_id is None:
            trail.first_id = cid
        trail.last_id = cid
        page = page_of(head.target)
        escaped = xml_escape(page)
        self._open_pages = f"{self._open_pages}, {escaped}" if trail.pages else escaped
        trail.pages.append(page)
        self._write_newest(f"{role}.xml", f"{self._xml_line(self._open_pages)}</Sequences>\n",
                           lambda: self._render_xml(role))
        self._write_newest("trails", self._index_line(trail), self._render_index)
        return cid

    def _seal(self, name: str, text: str) -> None:
        """Add text, a sealed trail's text in name, to name's sealed length."""
        if name in self._sealed:
            self._sealed[name] += len(text.encode())

    def _write_newest(self, name: str, newest: str, render) -> None:
        """Write newest, the newest trail's text, after name's sealed text,
        which stays on disk as it is.  The first write of name by this store
        writes the whole file as render() gives it, so a file on disk that
        differs from the store's rendering is replaced.  It writes
        `<name>.tmp` and renames it over name, so a failed write leaves name
        as it was; the temporary name is neither a role's XML nor a
        request file."""
        path = self._prefix + name
        offset = self._sealed.get(name)
        if offset is None:
            whole = render().encode()
            _write(path + ".tmp", whole)
            os.replace(path + ".tmp", path)
            self._sealed[name] = len(whole) - len(newest.encode())
        else:
            _write(path, newest.encode(), offset)

    def _render_index(self) -> str:
        return "".join(self._index_line(t) for t in self.trails if t.first_id is not None)

    def _render_xml(self, role: str) -> str:
        lines = "".join(self._xml_line(xml_escape(", ".join(t.pages)))
                        for t in self.trails if t.role == role and t.pages)
        return f'<Sequences role="{xml_escape(role, {chr(34): "&quot;"})}">\n{lines}</Sequences>\n'

    @staticmethod
    def _index_line(trail: Trail) -> str:
        return f"{trail.role}\t{trail.first_id}\t{trail.last_id}\n"

    @staticmethod
    def _xml_line(pages: str) -> str:
        return f"  <Trail>{pages}</Trail>\n"

    # -- reading -----------------------------------------------------------

    def roles(self) -> list[str]:
        seen: list[str] = []
        for trail in self.trails:
            if trail.role not in seen:
                seen.append(trail.role)
        return seen

    def read_exchange(self, cid: int) -> tuple[str, int]:
        """(raw request text, session flag) for one communication id.
        A missing flag file is a corrupt store and is reported by id."""
        try:
            flag = int(_read(f"{self._prefix}{cid}_Srequest").strip())
        except FileNotFoundError:
            raise ValueError(f"store {self.directory}: {cid}_request has no matching {cid}_Srequest") from None
        return _read(f"{self._prefix}{cid}_request"), flag

    def recorded_ids(self) -> list[int]:
        """Ids with a `<id>_request` file: those listed on open, then those
        recorded since."""
        return list(self._ids)

    def role_of(self, cid: int) -> str:
        for trail in self.trails:
            if trail.first_id is not None and trail.first_id <= cid <= trail.last_id:
                return trail.role
        raise ValueError(f"store {self.directory}: communication id {cid} not covered by any trail")

    def trail_records(self) -> list[tuple[str, list[tuple[int, str, int]]]]:
        """Per trail, in recording order: (role, [(cid, raw request, flag)]).
        This is the replay view of the store."""
        out = []
        for trail in self.trails:
            if trail.first_id is None:
                continue
            records = [(cid, *self.read_exchange(cid)) for cid in range(trail.first_id, trail.last_id + 1)]
            out.append((trail.role, records))
        return out
