"""Intercepting reverse proxy, the deployable form of the enforcer.

The proxy owns its listening socket and a fixed pool of worker threads, 8
by default (the workers argument).  Each worker loops: a blocking accept()
on that socket, then the whole request, so the kernel hands each connection
to one idle worker, and no thread is started per connection.  When every
worker is busy a connection waits in the listen backlog (_BACKLOG) until
one frees: the overload policy is to wait.  A client has _IO_TIMEOUT in all
to send its request head, however it drips it, and up to _IO_TIMEOUT per
read after it.  A request whose handling raises is logged with its
traceback, and neither it nor a failed accept ends the worker.
shutdown() makes serve_forever return, which wakes the blocked accepts; it
cuts off every client still sending its head and joins the workers once
each has finished its request: a head not yet read has not been verified
either, so it is dropped unanswered, while a request past its head goes on
to its end.  A Ctrl-C in serve_forever does not wait for the workers.

One request per connection.  Its head is read up to the first blank line,
empty or whitespace only; one whose blank line is not a bare CRLF is
refused, since an upstream that ends heads only at CRLF CRLF would read
what follows as more of the head.  Enforcer.evaluate parses and keys the
head once and hands both back in its verdict, before the body is read.  A
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
proxy from being built.  Both sides of a connection are read through an
http1.Connection, which the crawler shares.  The response head is framed
by RFC 9112 section 6.3; one that http1 refuses is a 502, and so is an
unreachable upstream, and each 502 is logged as a warning with its cause
(connect, timeout or malformed response), evaluate's request id and the
error, never the head.  A 1xx head other than 101 is relayed at once and
the final head read after it.  The body is streamed to the client in
pieces of at most 64 KiB: a chunked one up to its last chunk and trailer
section, a 101's or one with no length until the upstream closes.  Each
final response head goes to Enforcer.note_response before the client gets
a byte of it: the Enforcer owns the session and decides which response logs
a client in or out.  Each answer (a 403, a 502 or the response) shuts the
client's side once sent, so the client sees its end before the upstream
socket closes, and the worker then closes every connection, answered or not.
"""

from __future__ import annotations

import logging
import socket
import threading
import time

from .enforcer import LEVEL_FOR_REASON, Enforcer, Verdict
from .http1 import Connection

logger = logging.getLogger(__name__)

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


class EnforcementProxy:
    """A listening socket and the pool of worker threads that accept from it."""

    def __init__(self, listen: tuple[str, int], upstream: tuple[str, int], enforcer: Enforcer,
                 workers: int = _WORKERS):
        if workers < 1:
            raise ValueError("the proxy needs at least one worker")
        # resolved before the listening socket exists, so a name that does
        # not resolve (socket.gaierror) leaves no socket behind
        self._upstream_addresses = socket.getaddrinfo(*upstream, 0, socket.SOCK_STREAM)
        self.socket = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            self.socket.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)  # a restart binds despite TIME_WAIT
            self.socket.bind(listen)
            self.socket.listen(_BACKLOG)
        except Exception:
            self.socket.close()
            raise
        self.server_address = self.socket.getsockname()
        self.enforcer = enforcer
        self.workers = workers
        self.threads: list[threading.Thread] = []  # the pool, once serve_forever starts it
        self._stopping = threading.Event()
        # the connections whose heads are being read, which shutdown() cuts off
        self._reading: set[socket.socket] = set()
        self._reading_lock = threading.Lock()

    def serve_forever(self, poll_interval: float = 0.5) -> None:
        """Start the workers and wait until shutdown().  No worker polls,
        since returning wakes their accepts; poll_interval is only the pause
        after a failed accept (out of file descriptors, say).  After a
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
            self._stopping.set()  # after a Ctrl-C, for the workers
            try:
                # on Linux this wakes every accept() blocked on the socket, and
                # makes every later one fail at once
                self.socket.shutdown(socket.SHUT_RD)
            except OSError:
                pass  # closed already

    def shutdown(self) -> None:
        """Stop serve_forever, once every worker has finished its request;
        a connection still sending its head is cut off first."""
        self._stopping.set()  # serve_forever returns, and stops the accepts
        with self._reading_lock:
            for sock in self._reading:
                try:
                    sock.shutdown(socket.SHUT_RDWR)  # wakes its worker's recv
                except OSError:
                    pass  # the client has gone already
        for worker in self.threads:
            worker.join()

    def server_close(self) -> None:
        self.socket.close()

    def get_request(self) -> tuple[socket.socket, tuple[str, int]]:
        return self.socket.accept()

    def handle_error(self, request: socket.socket, client_address: tuple[str, int]) -> None:
        """Log the request whose handling raised, with its traceback."""
        logger.exception("request from %s:%d raised", *client_address)

    def _read_head(self, conn: Connection) -> bytes:
        """conn.read_head within _IO_TIMEOUT, cut off by shutdown(): b""
        once the proxy is stopping, whatever arrived, or once a read fails."""
        with self._reading_lock:
            if self._stopping.is_set():
                return b""
            self._reading.add(conn.sock)
        try:
            head = conn.read_head(time.monotonic() + _IO_TIMEOUT)
        except OSError:
            head = b""  # the client went away, or took too long
        finally:
            with self._reading_lock:
                self._reading.discard(conn.sock)
        return b"" if self._stopping.is_set() else head

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
                sock, client_address = self.get_request()
            except OSError:
                if not self._stopping.is_set():
                    time.sleep(pause)
                continue
            with sock:  # an answer has shut its write side already
                try:
                    self.finish_request(sock, client_address)
                except Exception:
                    self.handle_error(sock, client_address)

    def finish_request(self, sock: socket.socket, client_address: tuple[str, int]) -> None:
        """Handle one connection, which the caller closes."""
        conn = Connection(sock)
        head_bytes = self._read_head(conn)
        if not head_bytes:
            return
        sock.settimeout(_IO_TIMEOUT)
        verdict = self.enforcer.evaluate(head_bytes.decode("latin-1"), client_address[0])
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
                conn.relay(length, lambda piece: None)
                return
            if (length and head.version == "HTTP/1.1"
                    and (head.get("Expect") or "").lower() == "100-continue"):
                sock.sendall(b"HTTP/1.1 100 Continue\r\n\r\n")
            # bytes past the declared body (a pipelined second request, say)
            # were never verified, so they are never forwarded; nor is a body
            # the client cut short
            body: list[bytes] = []
            if conn.relay(length, body.append):
                self._forward(sock, client_address[0], verdict, head_bytes, b"".join(body))
        except OSError:
            pass  # a peer went away mid-message

    def _forward(self, sock: socket.socket, client_ip: str, verdict: Verdict, head_bytes: bytes,
                 body: bytes) -> None:
        """Send the verified request upstream and stream its response to the
        client, or answer 502 when no well-framed response head comes."""
        try:
            up = self.connect_upstream()
        except OSError as exc:
            _bad_gateway(sock, verdict, "connect", exc)
            return
        with up:
            upstream = Connection(up)
            try:
                up.sendall(head_bytes + body)
                response_head, status, fields, length = upstream.read_response_head(verdict.head.method,
                                                                                    sock.sendall)
            except (ValueError, OSError) as exc:
                cause = ("malformed response" if isinstance(exc, ValueError)
                         else "timeout" if isinstance(exc, TimeoutError) else "connect")
                _bad_gateway(sock, verdict, cause, exc)
                return
            # bind/clear the session before the client can act on the response,
            # otherwise its next request races the bookkeeping
            self.enforcer.note_response(client_ip, verdict, body, status, fields)
            # the head goes in one write with the body bytes that came with
            # it: a small head sent alone waits on Nagle's algorithm.  After a
            # 101 the connection speaks another protocol, until close.
            try:
                upstream.relay(None if status == 101 else length, sock.sendall, response_head)
            except ValueError:
                return  # broken chunked framing: both connections close
            # the client sees the response end now, not after the upstream
            # socket closes
            sock.shutdown(socket.SHUT_WR)


def _bad_gateway(sock: socket.socket, verdict: Verdict, cause: str, exc: Exception) -> None:
    """Log the 502 by cause, request id and exception text (never the head,
    which carries cookies), then send it and shut the client's write side."""
    logger.warning("502 Bad Gateway for %s: %s: %s", verdict.key.request_id, cause, exc)
    sock.sendall(_BAD_GATEWAY)
    sock.shutdown(socket.SHUT_WR)

