"""Intercepting reverse proxy, the deployable form of the enforcer.

Sits between web clients and the target app.  Exactly one message is
forwarded per connection: the head up to the blank line and the body by
its declared Content-Length (anything but a non-negative integer counts as
0).  Bytes the client sends past that message, such as a pipelined second
request, were never verified and are dropped.  The message is either
forwarded verbatim (byte for byte, so the upstream sees exactly what the
client sent) or answered with a 403-class refusal naming only the
deviation reason.  An unreachable upstream is a 502, not a deviation.

When a login response comes back the proxy inspects it for a fresh session
cookie and binds the client's role before releasing the response; a relayed
logout clears the binding the same way.
"""

from __future__ import annotations

import socket
import socketserver
import threading
from urllib.parse import parse_qs

from .enforcer import Enforcer
from .profile_store import RequestHead, page_of, parse_header_block, set_cookie_value

_HEAD_LIMIT = 65536
_IO_TIMEOUT = 15.0


def _read_head(sock: socket.socket) -> bytes | None:
    """Bytes up to and including the blank line, plus whatever body bytes
    arrived with them; None when the peer closes before sending a head."""
    buf = b""
    while b"\r\n\r\n" not in buf:
        if len(buf) > _HEAD_LIMIT:
            return buf
        chunk = sock.recv(4096)
        if not chunk:
            return buf if buf else None
        buf += chunk
    return buf


def _length(value: str | None) -> int:
    """A declared Content-Length; anything but a non-negative integer is 0."""
    return int(value) if value and value.isascii() and value.isdigit() else 0


def _response_fields(head_bytes: bytes) -> list[tuple[str, str]]:
    """(lowercased name, value) pairs of a response head's header lines."""
    pairs = (line.partition(":") for line in head_bytes.decode("latin-1").split("\r\n")[1:])
    return [(name.strip().lower(), value.strip()) for name, _, value in pairs]


def _recv_exact(sock: socket.socket, buf: bytes, total: int) -> bytes:
    while len(buf) < total:
        chunk = sock.recv(min(65536, total - len(buf)))
        if not chunk:
            break
        buf += chunk
    return buf


def _error_response(status_line: str, reason_header: tuple[str, str] | None, body_text: str) -> bytes:
    body = f"<html><body><h1>{body_text}</h1></body></html>".encode()
    lines = [
        status_line,
        "Content-Type: text/html",
        f"Content-Length: {len(body)}",
        "Connection: close",
    ]
    if reason_header:
        lines.append(f"{reason_header[0]}: {reason_header[1]}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode() + body


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
            data = _read_head(sock)
        except OSError:
            return
        if data is None:
            return
        head_bytes, sep, body = data.partition(b"\r\n\r\n")
        head_text = head_bytes.decode("latin-1") + "\r\n\r\n" if sep else head_bytes.decode("latin-1")
        try:
            head = parse_header_block(head_text)
        except ValueError:
            head = None  # evaluate blocks and logs it
        length = _length(head.get("Content-Length")) if head else 0
        try:
            # bytes past the declared body (a pipelined second request, say)
            # were never verified, so they are never forwarded
            body = _recv_exact(sock, body, length)[:length]
        except OSError:
            return

        enforcer = self.server.enforcer
        client_ip = self.client_address[0]
        verdict = enforcer.evaluate(head_text, client_ip)
        if verdict.blocked:
            self._send(sock, _error_response(
                "HTTP/1.1 403 Forbidden",
                ("X-Deviation-Reason", verdict.reason),
                "Request blocked: " + verdict.reason,
            ))
            return

        relayed = self._forward(head_bytes + sep + body)
        if relayed is None:
            self._send(sock, _error_response("HTTP/1.1 502 Bad Gateway", None, "Upstream unreachable"))
            return
        response, response_fields = relayed
        # bind/clear the session before the client can act on the response,
        # otherwise its next request races the bookkeeping
        self._after_relay(head, body, response_fields, client_ip)
        self._send(sock, response)

    def _send(self, sock: socket.socket, payload: bytes) -> None:
        try:
            sock.sendall(payload)
        except OSError:
            pass

    def _forward(self, raw_request: bytes) -> tuple[bytes, list[tuple[str, str]]] | None:
        """The upstream's response to raw_request and its header fields."""
        try:
            up = socket.create_connection(self.server.upstream, timeout=_IO_TIMEOUT)
        except OSError:
            return None
        try:
            up.sendall(raw_request)
            data = _read_head(up)
            if data is None:
                return None
            head_bytes, sep, body = data.partition(b"\r\n\r\n")
            fields = _response_fields(head_bytes)
            declared = next((value for name, value in fields if name == "content-length"), None)
            length = _length(declared)
            if sep and length:
                body = _recv_exact(up, body, length)
            elif sep and declared is None:
                # no declared length: upstream signals the end by closing
                while True:
                    chunk = up.recv(65536)
                    if not chunk:
                        break
                    body += chunk
            return head_bytes + sep + body, fields
        except OSError:
            return None
        finally:
            up.close()

    def _after_relay(self, head: RequestHead, body: bytes, response_fields: list[tuple[str, str]],
                     client_ip: str) -> None:
        enforcer = self.server.enforcer
        config = enforcer.config
        page = page_of(head.target)
        user_agent = head.get("User-Agent") or ""
        if head.method.upper() == "POST" and page == config.login_page:
            cookie = set_cookie_value(response_fields, config.session_cookie_name)
            if cookie:
                form = parse_qs(body.decode("latin-1"))
                username = (form.get("username") or [""])[0]
                enforcer.note_login(client_ip, user_agent, username, cookie)
        elif page == config.logout_page:
            enforcer.note_logout(client_ip, user_agent)


def serve_proxy(listen: tuple[str, int], upstream: tuple[str, int], enforcer: Enforcer) -> EnforcementProxy:
    return EnforcementProxy(listen, upstream, enforcer)


def start_in_thread(server: socketserver.BaseServer) -> threading.Thread:
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return thread
