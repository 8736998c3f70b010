"""Intercepting reverse proxy, the deployable form of the enforcer.

One request per connection.  Enforcer.evaluate parses the request head once
and hands it back in its verdict, before the body is read.  The body is then
read by the head's Content-Length: forwarded with the head verbatim (byte for
byte) when the request passes, thrown away when it is blocked with a 403 that
names only the deviation reason.  Bytes past that body, such as a pipelined
second request, were never verified and are dropped.  The parser refuses a
head cut off before its blank line, with a malformed field line or with
ambiguous framing, so such a request is blocked as unknown_request.

The response head goes through profile_store.parse_response_head, which
frames it by RFC 9112 section 6.3; one it refuses is a 502, and so is an
unreachable upstream.  A 1xx head other than 101 is relayed at once and the
final head read after it.  The body is streamed to the client in pieces of
at most 64 KiB: a chunked one up to its last chunk and trailer section, a
101's or one with no length until the upstream closes.  A login (a redirect
that sets the session cookie, see profile_store.login_succeeded) or logout
response binds or clears the client's role once its final head arrives,
before the client gets a byte of it.
"""

from __future__ import annotations

import socket
import socketserver
from urllib.parse import parse_qs

from .enforcer import Enforcer
from .profile_store import CHUNKED, RequestHead, login_succeeded, page_of, parse_response_head

_HEAD_LIMIT = 65536
_PIECE = 65536
_IO_TIMEOUT = 15.0


def _read_head(sock: socket.socket, buf: bytes = b"") -> tuple[bytes, bytes]:
    """(head, rest): the bytes up to and including the first CRLF blank line,
    and whatever arrived after them, reading from sock after the bytes in
    buf.  A head cut off by the peer closing or by _HEAD_LIMIT comes back as
    it is, with no blank line and rest empty; it is empty when the peer
    closes before sending a byte."""
    while b"\r\n\r\n" not in buf:
        chunk = sock.recv(_PIECE) if len(buf) <= _HEAD_LIMIT else b""
        if not chunk:
            return buf, b""
        buf += chunk
    head, sep, rest = buf.partition(b"\r\n\r\n")
    return head + sep, rest


def _relay(sock: socket.socket, rest: bytes, length: int | None, send) -> None:
    """Pass exactly length bytes to send: those in rest first, then pieces of
    at most _PIECE read from sock.  With length None, pass everything until
    the peer closes.  A peer that closes early cuts it short."""
    if length is not None:
        rest = rest[:length]
        length -= len(rest)
    if rest:
        send(rest)
    while length is None or length > 0:
        piece = sock.recv(_PIECE if length is None else min(_PIECE, length))
        if not piece:
            return
        send(piece)
        if length is not None:
            length -= len(piece)


def _relay_chunked(sock: socket.socket, buf: bytes, checked: int, send) -> None:
    """Pass a chunked body (RFC 9112 section 7.1) to send, raw: each
    chunk-size line, its data and their CRLF, up to the last chunk and the
    blank line that ends its trailer section.  buf holds bytes already read,
    of which the first checked need no framing (the head).  The bytes framed
    so far go to send before each read of a piece of at most _PIECE from
    sock.  Raises ValueError on a bad chunk-size line, chunk data longer than
    its size, or a line longer than _HEAD_LIMIT.  A peer that closes early
    cuts it short."""
    data = 0  # chunk data still to pass
    expect = "size"  # the next line: a chunk size, the CRLF after data, or a trailer line
    while True:
        step = min(data, len(buf) - checked)
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
                return
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
                return
            expect = "size"


def _error_response(status: str, text: str, extra: str = "") -> bytes:
    body = f"<html><body><h1>{text}</h1></body></html>"
    return (f"HTTP/1.1 {status}\r\nContent-Type: text/html\r\nContent-Length: {len(body)}\r\n"
            f"Connection: close\r\n{extra}\r\n{body}").encode()


_BAD_GATEWAY = _error_response("502 Bad Gateway", "Bad gateway")


class EnforcementProxy(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, listen: tuple[str, int], upstream: tuple[str, int], enforcer: Enforcer):
        super().__init__(listen, _ProxyHandler)
        self.upstream = upstream
        self.enforcer = enforcer


class _ProxyHandler(socketserver.BaseRequestHandler):
    server: EnforcementProxy

    def handle(self):
        sock = self.request
        sock.settimeout(_IO_TIMEOUT)
        try:
            head_bytes, rest = _read_head(sock)
        except OSError:
            return
        if not head_bytes:
            return
        verdict = self.server.enforcer.evaluate(head_bytes.decode("latin-1"), self.client_address[0])
        body: list[bytes] = []
        try:
            # bytes past the declared body (a pipelined second request, say)
            # were never verified, so they are never forwarded
            _relay(sock, rest, verdict.head.content_length if verdict.head else 0,
                   (lambda piece: None) if verdict.blocked else body.append)
            if verdict.blocked:
                sock.sendall(_error_response("403 Forbidden", "Request blocked: " + verdict.reason,
                                             f"X-Deviation-Reason: {verdict.reason}\r\n"))
            else:
                self._forward(sock, verdict.head, head_bytes, b"".join(body))
        except OSError:
            pass  # a peer went away mid-message

    def _forward(self, sock: socket.socket, head: RequestHead, head_bytes: bytes, body: bytes) -> None:
        """Send the verified request upstream and stream its response to the
        client, or answer 502 when no well-framed response head comes."""
        try:
            up = socket.create_connection(self.server.upstream, timeout=_IO_TIMEOUT)
        except OSError:
            sock.sendall(_BAD_GATEWAY)
            return
        with up:
            try:
                up.sendall(head_bytes + body)
                rest = b""
                while True:
                    response_head, rest = _read_head(up, rest)
                    status, fields, length = parse_response_head(response_head.decode("latin-1"),
                                                                 head.method)
                    if status >= 200 or status == 101:
                        break
                    # an interim response (RFC 9110 section 15.2): on to the
                    # client at once, and the final one follows
                    sock.sendall(response_head)
            except (OSError, ValueError):
                sock.sendall(_BAD_GATEWAY)
                return
            # bind/clear the session before the client can act on the response,
            # otherwise its next request races the bookkeeping
            self._after_relay(head, body, status, fields)
            # the head and the body bytes that came with it go in one write:
            # a small head sent alone waits on Nagle's algorithm
            if length == CHUNKED:
                try:
                    _relay_chunked(up, response_head + rest, len(response_head), sock.sendall)
                except ValueError:
                    return  # broken chunked framing: both connections close
            else:  # after a 101 the connection speaks another protocol, until close
                end = None if length is None or status == 101 else len(response_head) + length
                _relay(up, response_head + rest, end, sock.sendall)

    def _after_relay(self, head: RequestHead, body: bytes, status: int,
                     fields: list[tuple[str, str]]) -> None:
        enforcer = self.server.enforcer
        client_ip = self.client_address[0]
        config = enforcer.config
        page = page_of(head.target)
        user_agent = head.get("User-Agent") or ""
        if head.method.upper() == "POST" and page == config.login_page:
            cookie = login_succeeded(status, fields, config.session_cookie_name)
            if cookie:
                form = parse_qs(body.decode("latin-1"))
                username = (form.get("username") or [""])[0]
                enforcer.note_login(client_ip, user_agent, username, cookie)
        elif page == config.logout_page:
            enforcer.note_logout(client_ip, user_agent)


def serve_proxy(listen: tuple[str, int], upstream: tuple[str, int], enforcer: Enforcer) -> EnforcementProxy:
    return EnforcementProxy(listen, upstream, enforcer)
