"""Closed-loop load: simulated browsers replaying walks over loopback.

Each connection thread takes the next whole walk and sends its steps one at
a time, each on a new TCP connection (the proxy closes after every reply),
from the walk's own source address.  A step's next request waits for the
previous reply, because a login reply carries the cookie the rest of the
walk presents.
"""

from __future__ import annotations

import socket
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from urllib.parse import urlencode

from sites import COOKIE, Walk

_TIMEOUT = 15.0


@dataclass
class Tally:
    latencies: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    expected: Counter = field(default_factory=Counter)   # reason or "ok" per step sent
    observed: Counter = field(default_factory=Counter)   # X-Deviation-Reason per 403 seen
    identities: set = field(default_factory=set)
    first_failure: str = ""

    def merge(self, other: "Tally") -> None:
        self.latencies += other.latencies
        self.attempted += other.attempted
        self.failed += other.failed
        self.expected += other.expected
        self.observed += other.observed
        self.identities |= other.identities
        self.first_failure = self.first_failure or other.first_failure


def _exchange(addr: tuple[str, int], src_ip: str, raw: bytes) -> bytes:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.settimeout(_TIMEOUT)
        if src_ip != "127.0.0.1":
            sock.bind((src_ip, 0))
        sock.connect(addr)
        sock.sendall(raw)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


def _parse(response: bytes) -> tuple[int, str | None, str | None]:
    """(status, X-Deviation-Reason, session cookie set); status 0 when the
    reply is not HTTP."""
    head = response.split(b"\r\n\r\n", 1)[0].decode("latin-1").split("\r\n")
    parts = head[0].split(" ", 2)
    if len(parts) < 2 or not parts[0].startswith("HTTP/") or not parts[1].isdigit():
        return 0, None, None
    reason = cookie = None
    for line in head[1:]:
        name, _, value = line.partition(":")
        name = name.strip().lower()
        if name == "x-deviation-reason":
            reason = value.strip()
        elif name == "set-cookie":
            cname, _, cvalue = value.split(";", 1)[0].partition("=")
            if cname.strip() == COOKIE:
                cookie = cvalue.strip()
    return int(parts[1]), reason, cookie


def run_walk(walk: Walk, addr: tuple[str, int], tally: Tally, deadline: float,
             check: bool = True) -> None:
    """Send the walk's steps until it ends or the deadline passes.  With
    check, every reply must carry the step's expected status and reason."""
    host = f"{addr[0]}:{addr[1]}"
    cookie = None
    for step in walk.steps:
        ip, agent = walk.identities[step.who]
        lines = [f"{step.method} /{step.page} HTTP/1.1", f"Host: {host}", f"User-Agent: {agent}"]
        if step.cookie and cookie:
            lines.append(f"Cookie: {COOKIE}={cookie}")
        body = b""
        if step.form is not None:
            body = urlencode(step.form).encode()
            lines += ["Content-Type: application/x-www-form-urlencoded", f"Content-Length: {len(body)}"]
        raw = ("\r\n".join(lines) + "\r\n\r\n").encode() + body
        start = time.perf_counter()
        try:
            response = _exchange(addr, ip, raw)
        except OSError as exc:
            response = b""
            error = str(exc)
        else:
            error = ""
        end = time.perf_counter()
        status, reason, set_cookie = _parse(response)
        if step.method == "POST" and set_cookie:
            cookie = set_cookie
        tally.latencies.append(end - start)
        tally.attempted += 1
        tally.identities.add((ip, agent))
        tally.expected[step.reason or "ok"] += 1
        if status == 403 and reason:
            tally.observed[reason] += 1
        if check and ((status, reason) != (step.status, step.reason)
                      or (step.status == 302 and not set_cookie)):
            tally.failed += 1
            tally.first_failure = tally.first_failure or (
                f"{step.method} /{step.page} from {agent}: got {status} {reason} {error}".rstrip()
                + f", expected {step.status} {step.reason}")
        if end >= deadline:
            return


def run_phase(walks, addr: tuple[str, int], seconds: float, connections: int,
              check: bool = True) -> tuple[Tally, float]:
    """Closed loop on `connections` threads for `seconds`, or until a finite
    `walks` runs out; returns the merged tally and the elapsed wall time."""
    lock = threading.Lock()
    tallies = [Tally() for _ in range(connections)]
    start = time.perf_counter()
    deadline = start + seconds

    def loop(tally: Tally) -> None:
        while time.perf_counter() < deadline:
            with lock:
                walk = next(walks, None)
            if walk is None:
                return
            run_walk(walk, addr, tally, deadline, check)

    threads = [threading.Thread(target=loop, args=(t,)) for t in tallies]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    elapsed = time.perf_counter() - start
    total = Tally()
    for t in tallies:
        total.merge(t)
    return total, elapsed
