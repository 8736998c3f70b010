"""Intercepting reverse proxy, the deployable form of the enforcer.

A fixed pool of worker threads serves it, 8 by default (the workers
argument).  Each worker loops: a blocking accept() on the shared listening
socket, then the whole request, so the kernel hands each connection to one
idle worker, and no thread is started per connection.  When every worker
is busy a connection waits in the listen backlog (_BACKLOG) until one
frees: the overload policy is to wait.  A client has _IO_TIMEOUT in all to
send its request head, however it drips it, and up to _IO_TIMEOUT per read
after it.  An exception in one request goes to handle_error, and neither it
nor a failed accept ends the worker.
shutdown() wakes the blocked accepts, cuts off every client still sending
its head, and joins the workers once each has finished its request: a head
not yet read has not been verified either, so it is dropped unanswered,
while a request past its head goes on to its end.  A Ctrl-C in
serve_forever does not wait for the workers.

One request per connection.  Its head is read up to the first blank line,
empty or whitespace only; one whose blank line is not a bare CRLF is
refused, since an upstream that ends heads only at CRLF CRLF would read
what follows as more of the head.  Enforcer.evaluate parses the request
head once and hands it back in its verdict, before the body is read.  A
blocked request gets a 403 that names only the deviation reason at once,
and its body, by the head's Content-Length, is then read and thrown away.
A passing request's body is read by its Content-Length and forwarded with
the head verbatim (byte for byte); a client that sends Expect:
100-continue gets 100 Continue before it is read.  Bytes past that body,
such as a pipelined second request, were never verified and are dropped.
The parser refuses a head cut off before its blank line, with a malformed
field line, a bare CR, an empty line before its request line or ambiguous
framing, so such a request is blocked as unknown_request.

The upstream name is resolved once, when the proxy is built, and each
request connects to its addresses in the order getaddrinfo gave them, as
socket.create_connection would, with no lookup per request: an address
that changes takes a restart, and a name that does not resolve stops the
proxy from being built.  The socket-level reading is profile_store's,
which the crawler shares.  The response head goes through
profile_store.read_response_head, which frames it by RFC 9112 section 6.3;
one it refuses is a 502, and so is an unreachable upstream.  A 1xx head
other than 101 is relayed at once and the final head read after it.  The
body is streamed to the client in pieces of at most 64 KiB: a chunked one
up to its last chunk and trailer section, a 101's or one with no length
until the upstream closes.  The client's side is then shut at once, so the
client sees the response end before the upstream socket closes.  A login
(a redirect that sets the session cookie, see
profile_store.login_succeeded) or logout response binds or clears the
client's role once its final head arrives, before the client gets a byte
of it.  Only the responses to the login and logout pages are read for it.
"""

from __future__ import annotations

import socket
import socketserver
import threading
import time
from urllib.parse import parse_qs

from .enforcer import LEVEL_FOR_REASON, Enforcer
from .profile_store import (CHUNKED, LOGIN_PAGE, LOGOUT_PAGE, RequestHead, login_succeeded, page_of,
                            read_head, read_response_head, relay, relay_chunked)

_IO_TIMEOUT = 15.0
_WORKERS = 8
# the listen backlog: connections that wait while every worker is busy
_BACKLOG = 128


def _error_response(status: str, text: str, extra: str = "") -> bytes:
    body = f"<html><body><h1>{text}</h1></body></html>"
    return (f"HTTP/1.1 {status}\r\nContent-Type: text/html\r\nContent-Length: {len(body)}\r\n"
            f"Connection: close\r\n{extra}\r\n{body}").encode()


_BAD_GATEWAY = _error_response("502 Bad Gateway", "Bad gateway")
# the 403 for each block reason, which names only the reason: every blocked
# verdict carries one of these, since the enforcer logs its level first
_BLOCKED = {
    reason: _error_response("403 Forbidden", "Request blocked: " + reason,
                            f"X-Deviation-Reason: {reason}\r\n")
    for reason in LEVEL_FOR_REASON
}


class EnforcementProxy(socketserver.TCPServer):
    """A TCPServer served by a fixed pool of worker threads, each of which
    accepts its own connections from the shared listening socket."""

    allow_reuse_address = True
    request_queue_size = _BACKLOG

    def __init__(self, listen: tuple[str, int], upstream: tuple[str, int], enforcer: Enforcer,
                 workers: int = _WORKERS):
        if workers < 1:
            raise ValueError("the proxy needs at least one worker")
        # resolved before the listening socket exists, so a name that does
        # not resolve (socket.gaierror) leaves no socket behind
        self._upstream_addresses = socket.getaddrinfo(*upstream, 0, socket.SOCK_STREAM)
        super().__init__(listen, _ProxyHandler)
        self.enforcer = enforcer
        self.workers = workers
        self.threads: list[threading.Thread] = []  # the pool, once serve_forever starts it
        self._stopping = threading.Event()
        # the connections whose heads are being read, which shutdown() cuts off
        self._reading: set[socket.socket] = set()
        self._reading_lock = threading.Lock()

    def serve_forever(self, poll_interval: float = 0.5) -> None:
        """Start the workers and wait until shutdown().  No worker polls,
        since shutdown() wakes their accepts; poll_interval is only the
        pause after a failed accept (out of file descriptors, say).  After a
        Ctrl-C here the accepts stop at once, and a request in flight ends
        with the process, the workers being daemon threads."""
        for n in range(self.workers):
            worker = threading.Thread(target=self._work, args=(poll_interval,),
                                      name=f"proxy worker {n}", daemon=True)
            worker.start()
            self.threads.append(worker)
        try:
            self._stopping.wait()
        finally:
            self._stop_accepting()

    def shutdown(self) -> None:
        """Stop serve_forever, once every worker has finished its request;
        a connection still sending its head is cut off first."""
        self._stop_accepting()
        with self._reading_lock:
            for sock in self._reading:
                try:
                    sock.shutdown(socket.SHUT_RDWR)  # wakes its worker's recv
                except OSError:
                    pass  # the client has gone already
        for worker in self.threads:
            worker.join()

    def _read_head(self, sock: socket.socket) -> tuple[bytes, bytes]:
        """read_head within _IO_TIMEOUT, cut off by shutdown(): (b"", b"")
        once the proxy is stopping, whatever arrived."""
        with self._reading_lock:
            if self._stopping.is_set():
                return b"", b""
            self._reading.add(sock)
        try:
            got = read_head(sock, deadline=time.monotonic() + _IO_TIMEOUT)
        finally:
            with self._reading_lock:
                self._reading.discard(sock)
        return (b"", b"") if self._stopping.is_set() else got

    def _stop_accepting(self) -> None:
        self._stopping.set()
        try:
            # on Linux this wakes every accept() blocked on the socket, and
            # makes every later one fail at once
            self.socket.shutdown(socket.SHUT_RD)
        except OSError:
            pass  # already shut

    def connect_upstream(self) -> socket.socket:
        """A socket connected to the first upstream address that accepts,
        tried in order; raises the last address's OSError when none does."""
        for family, kind, proto, _, address in self._upstream_addresses:
            up = socket.socket(family, kind, proto)
            try:
                up.settimeout(_IO_TIMEOUT)
                up.connect(address)
                return up
            except OSError as exc:
                up.close()
                error = exc
        raise error

    def _work(self, pause: float) -> None:
        while not self._stopping.is_set():
            try:
                request, client_address = self.get_request()
            except OSError:
                if not self._stopping.is_set():
                    time.sleep(pause)
                continue
            answered = False
            try:
                answered = self.finish_request(request, client_address)
            except Exception:
                self.handle_error(request, client_address)
            finally:
                # an answered connection's write side is shut already
                if answered:
                    self.close_request(request)
                else:
                    self.shutdown_request(request)

    def finish_request(self, request, client_address) -> bool:
        """Handle one connection; True when the handler answered it and shut
        its write side."""
        return self.RequestHandlerClass(request, client_address, self).answered


class _ProxyHandler(socketserver.BaseRequestHandler):
    server: EnforcementProxy
    answered = False  # set once the answer is sent and the write side shut

    def handle(self):
        sock = self.request
        try:
            head_bytes, rest = self.server._read_head(sock)
            sock.settimeout(_IO_TIMEOUT)
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
                sock.sendall(_BLOCKED[verdict.reason])
                sock.shutdown(socket.SHUT_WR)
                self.answered = True
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
            up = self.server.connect_upstream()
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
            # the client sees the response end now, not after the upstream
            # socket closes
            sock.shutdown(socket.SHUT_WR)
            self.answered = True

    def _after_relay(self, head: RequestHead, body: bytes, status: int,
                     fields: list[tuple[str, str]]) -> None:
        """Bind the client's role after a login, or clear it after a logout;
        a response to any other page reads nothing more."""
        page = page_of(head.target)
        if page != LOGIN_PAGE and page != LOGOUT_PAGE:
            return
        enforcer = self.server.enforcer
        client_ip = self.client_address[0]
        user_agent = head.get("User-Agent") or ""
        if page == LOGOUT_PAGE:
            enforcer.note_logout(client_ip, user_agent)
        elif head.method.upper() == "POST":
            cookie = login_succeeded(status, fields, enforcer.config.session_cookie_name)
            if cookie:
                form = parse_qs(body.decode("latin-1"))
                username = (form.get("username") or [""])[0]
                enforcer.note_login(client_ip, user_agent, username, cookie)


def serve_proxy(listen: tuple[str, int], upstream: tuple[str, int], enforcer: Enforcer,
                workers: int = _WORKERS) -> EnforcementProxy:
    return EnforcementProxy(listen, upstream, enforcer, workers)
