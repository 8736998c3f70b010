"""Intercepting reverse proxy, the deployable form of the enforcer.

One request per connection.  Its head is read up to the first blank line;
one with a bare LF in it is refused, since an upstream that ends heads only
at CRLF CRLF would read what follows as more of the head.  Enforcer.evaluate
parses the request head once and hands it back in its verdict, before the
body is read.  A blocked request gets a 403 that names only the deviation
reason at once, and its body, by the head's Content-Length, is then read
and thrown away.  A passing request's body is read by its Content-Length
and forwarded with the head verbatim (byte for byte); a client that sends
Expect: 100-continue gets 100 Continue before it is read.  Bytes past that
body, such as a pipelined second request, were never verified and are
dropped.  The parser refuses a head cut off before its blank line, with a
malformed field line or with ambiguous framing, so such a request is
blocked as unknown_request.

The socket-level reading is profile_store's, which the crawler shares.  The
response head goes through profile_store.read_response_head, which frames
it by RFC 9112 section 6.3; one it refuses is a 502, and so is an
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
from .profile_store import (CHUNKED, LOGIN_PAGE, LOGOUT_PAGE, RequestHead, login_succeeded, page_of,
                            read_head, read_response_head, relay, relay_chunked)

_IO_TIMEOUT = 15.0


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
            head_bytes, rest = read_head(sock)
        except OSError:
            return
        if not head_bytes:
            return
        verdict = self.server.enforcer.evaluate(head_bytes.decode("latin-1"), self.client_address[0])
        head = verdict.head
        length = head.content_length if head else 0
        try:
            if verdict.blocked:
                # answered before the body is read, which the client may hold
                # back for a 100 Continue (RFC 9110 section 10.1.1), and
                # half-closed so the client sees the end; whatever body it
                # sends is then read, so closing sends no reset
                sock.sendall(_error_response("403 Forbidden", "Request blocked: " + verdict.reason,
                                             f"X-Deviation-Reason: {verdict.reason}\r\n"))
                sock.shutdown(socket.SHUT_WR)
                relay(sock, rest, length, lambda piece: None)
                return
            if (length and head.version == "HTTP/1.1"
                    and (head.get("Expect") or "").lower() == "100-continue"):
                sock.sendall(b"HTTP/1.1 100 Continue\r\n\r\n")
            # bytes past the declared body (a pipelined second request, say)
            # were never verified, so they are never forwarded; nor is a body
            # the client cut short
            body: list[bytes] = []
            if relay(sock, rest, length, body.append):
                self._forward(sock, head, head_bytes, b"".join(body))
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
                response_head, rest, status, fields, length = read_response_head(up, head.method, sock.sendall)
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
                    relay_chunked(up, response_head + rest, len(response_head), sock.sendall)
                except ValueError:
                    return  # broken chunked framing: both connections close
            else:  # after a 101 the connection speaks another protocol, until close
                end = None if length is None or status == 101 else len(response_head) + length
                relay(up, response_head + rest, end, sock.sendall)

    def _after_relay(self, head: RequestHead, body: bytes, status: int,
                     fields: list[tuple[str, str]]) -> None:
        enforcer = self.server.enforcer
        client_ip = self.client_address[0]
        config = enforcer.config
        page = page_of(head.target)
        user_agent = head.get("User-Agent") or ""
        if head.method.upper() == "POST" and page == LOGIN_PAGE:
            cookie = login_succeeded(status, fields, config.session_cookie_name)
            if cookie:
                form = parse_qs(body.decode("latin-1"))
                username = (form.get("username") or [""])[0]
                enforcer.note_login(client_ip, user_agent, username, cookie)
        elif page == LOGOUT_PAGE:
            enforcer.note_logout(client_ip, user_agent)


def serve_proxy(listen: tuple[str, int], upstream: tuple[str, int], enforcer: Enforcer) -> EnforcementProxy:
    return EnforcementProxy(listen, upstream, enforcer)
