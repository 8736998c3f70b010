"""Intercepting reverse proxy, the deployable form of the enforcer.

One request per connection.  Enforcer.evaluate parses the request head once
and hands it back in its verdict, before the body is read.  The body is then
read by the head's Content-Length: forwarded with the head verbatim (byte for
byte) when the request passes, thrown away when it is blocked with a 403 that
names only the deviation reason.  Bytes past that body, such as a pipelined
second request, were never verified and are dropped.  The parser refuses a
head cut off before its blank line or with ambiguous framing, so such a
request is blocked as unknown_request.

The response is framed by RFC 9112 section 6.3 (no body after HEAD or for a
204 or 304, read until close for a Transfer-Encoding or no Content-Length, a
502 for an invalid Content-Length) and streamed to the client in pieces of at
most 64 KiB.  An unreachable upstream is a 502, not a deviation.  A login or
logout response binds or clears the client's role once its head arrives,
before the client gets a byte of it.
"""

from __future__ import annotations

import socket
import socketserver
from urllib.parse import parse_qs

from .enforcer import Enforcer
from .profile_store import RequestHead, declared_length, page_of, set_cookie_value

_HEAD_LIMIT = 65536
_PIECE = 65536
_IO_TIMEOUT = 15.0


def _read_head(sock: socket.socket) -> tuple[bytes, bytes]:
    """(head, rest): the bytes up to and including the first CRLF blank line,
    and whatever arrived after them.  A head cut off by the peer closing or
    by _HEAD_LIMIT comes back as it is, with no blank line and rest empty;
    it is empty when the peer closes before sending a byte."""
    buf = b""
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


def _response_framing(method: str, head: bytes) -> tuple[int | None, list[tuple[str, str]]]:
    """The body length of a response (None: until the upstream closes) and
    its (lowercased name, value) header fields.  Raises ValueError on a head
    cut off before its blank line or an invalid Content-Length."""
    if not head.endswith(b"\r\n\r\n"):
        raise ValueError("response head cut off")
    lines = head.decode("latin-1").split("\r\n")
    pairs = (line.partition(":") for line in lines[1:-2])
    fields = [(name.strip().lower(), value.strip()) for name, _, value in pairs]
    # the status code sits after the 8-character "HTTP/x.y" and a space
    if method == "HEAD" or lines[0][9:12] in ("204", "304"):
        return 0, fields
    if any(name == "transfer-encoding" for name, _ in fields):
        return None, fields
    lengths = [value for name, value in fields if name == "content-length"]
    return (declared_length(lengths) if lengths else None), fields


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
                response_head, rest = _read_head(up)
                length, fields = _response_framing(head.method, response_head)
            except (OSError, ValueError):
                sock.sendall(_BAD_GATEWAY)
                return
            # bind/clear the session before the client can act on the response,
            # otherwise its next request races the bookkeeping
            self._after_relay(head, body, fields)
            # the head and the body bytes that came with it go in one write:
            # a small head sent alone waits on Nagle's algorithm
            _relay(up, response_head + rest,
                   None if length is None else len(response_head) + length, sock.sendall)

    def _after_relay(self, head: RequestHead, body: bytes, fields: list[tuple[str, str]]) -> None:
        enforcer = self.server.enforcer
        client_ip = self.client_address[0]
        config = enforcer.config
        page = page_of(head.target)
        user_agent = head.get("User-Agent") or ""
        if head.method.upper() == "POST" and page == config.login_page:
            cookie = set_cookie_value(fields, config.session_cookie_name)
            if cookie:
                form = parse_qs(body.decode("latin-1"))
                username = (form.get("username") or [""])[0]
                enforcer.note_login(client_ip, user_agent, username, cookie)
        elif page == config.logout_page:
            enforcer.note_logout(client_ip, user_agent)


def serve_proxy(listen: tuple[str, int], upstream: tuple[str, int], enforcer: Enforcer) -> EnforcementProxy:
    return EnforcementProxy(listen, upstream, enforcer)
