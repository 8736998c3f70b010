import errno
import gc
import http.client
import logging
import socket
import socketserver
import sys
import threading
import time
import warnings
from collections import Counter
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import unquote

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from phpwarden import http1, profile_store
from phpwarden.enforcer import LEVEL_FOR_REASON, DeviationLog, Enforcer, load_bindings
from phpwarden.models import ModelRow, NavigationModel, RequestModel
from phpwarden.proxy import _BLOCKED, EnforcementProxy, _error_response, serve_proxy
from phpwarden.scenarios import run_scenario

from conftest import BARE_CR_REQUEST, BINDINGS_TEXT, read_records, start_in_thread

CANNED_RESPONSE = (
    b"HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\nContent-Length: 2\r\n\r\nok"
)


class CaptureUpstream(socketserver.ThreadingTCPServer):
    """Fake origin server that remembers every raw request byte for byte."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self):
        self.captured: list[bytes] = []
        self.lock = threading.Lock()
        super().__init__(("127.0.0.1", 0), _CaptureHandler)


class _CaptureHandler(socketserver.BaseRequestHandler):
    server: CaptureUpstream

    def handle(self):
        sock = self.request
        sock.settimeout(5)
        data = b""
        while b"\r\n\r\n" not in data:
            chunk = sock.recv(65536)
            if not chunk:
                return
            data += chunk
        head, _, body = data.partition(b"\r\n\r\n")
        length = 0
        for line in head.decode("latin-1").split("\r\n")[1:]:
            if line.lower().startswith("content-length:"):
                length = int(line.split(":", 1)[1].strip())
        while len(body) < length:
            body += sock.recv(65536)
        with self.server.lock:
            self.server.captured.append(head + b"\r\n\r\n" + body)
        sock.sendall(CANNED_RESPONSE)


def send_raw(addr, payload: bytes) -> bytes:
    with socket.create_connection(addr, timeout=5) as sock:
        sock.sendall(payload)
        sock.shutdown(socket.SHUT_WR)
        response = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            response += chunk
    return response


def status_of(response: bytes) -> int:
    return int(response.split(b"\r\n", 1)[0].split()[1])


@pytest.fixture
def capture_rig(trained, tmp_path):
    """Proxy in front of the byte-capture upstream, trained models behind."""
    upstream = CaptureUpstream()
    start_in_thread(upstream)
    log_path = str(tmp_path / "deviations.log")
    enforcer = Enforcer(
        trained.model1, trained.model2,
        load_bindings(BINDINGS_TEXT), DeviationLog(log_path),
    )
    proxy = serve_proxy(("127.0.0.1", 0), upstream.server_address, enforcer)
    start_in_thread(proxy)
    yield ("127.0.0.1", proxy.server_address[1]), upstream, enforcer, log_path
    proxy.shutdown()
    proxy.server_close()
    upstream.shutdown()
    upstream.server_close()
    enforcer.log.close()


def test_forwarded_request_is_byte_identical(capture_rig):
    addr, upstream, _, _ = capture_rig
    request = (
        b"GET /About.php HTTP/1.1\r\n"
        b"Host: app.local\r\n"
        b"User-Agent: byte-check/1.0\r\n"
        b"X-Custom-Order: kept\r\n"
        b"\r\n"
    )
    response = send_raw(addr, request)
    assert response.startswith(b"HTTP/1.1 200 OK")
    assert response.endswith(b"ok")
    assert upstream.captured == [request]


def test_post_body_forwarded_by_declared_length(capture_rig):
    addr, upstream, _, _ = capture_rig
    body = b"username=&password="
    request = (
        b"POST /Login.php HTTP/1.1\r\n"
        b"Host: app.local\r\n"
        b"User-Agent: byte-check/1.0\r\n"
        b"Content-Type: application/x-www-form-urlencoded\r\n"
        b"Content-Length: " + str(len(body)).encode() + b"\r\n"
        b"\r\n" + body
    )
    send_raw(addr, request)
    assert upstream.captured == [request]


def test_pipelined_second_request_is_not_forwarded(capture_rig):
    # one write carrying a verified head and an unverified one behind it:
    # only the message that was checked may reach the upstream
    addr, upstream, _, _ = capture_rig
    first = b"GET /About.php HTTP/1.1\r\nHost: app.local\r\nUser-Agent: pipeline/1.0\r\n\r\n"
    second = b"GET /Secret.php HTTP/1.1\r\nHost: app.local\r\nUser-Agent: pipeline/1.0\r\n\r\n"
    response = send_raw(addr, first + second)
    assert status_of(response) == 200
    assert upstream.captured == [first]


@pytest.mark.parametrize("payload", [
    # the verified head ends at a bare-LF blank line, the framed one at CRLF CRLF
    b"GET /About.php HTTP/1.1\nHost: x\nUser-Agent: lf\n\n"
    b"GET /Secret.php HTTP/1.1\nHost: x\r\n\r\n",
    # a whitespace-only line ends the verified head
    b"GET /About.php HTTP/1.1\r\nHost: x\r\nUser-Agent: ws\r\n \r\n"
    b"GET /Secret.php HTTP/1.1\r\nHost: x\r\n\r\n",
], ids=["bare-lf-blank-line", "whitespace-blank-line"])
def test_request_hidden_behind_a_blank_line_is_blocked(capture_rig, payload):
    addr, upstream, enforcer, log_path = capture_rig
    response = send_raw(addr, payload)
    head = response.split(b"\r\n\r\n", 1)[0].decode()
    assert status_of(response) == 403
    assert "X-Deviation-Reason: unknown_request" in head
    assert upstream.captured == []
    assert enforcer.blocked_count == 1
    assert len(read_records(log_path)) == 1


def test_request_with_a_bare_cr_is_blocked(capture_rig):
    addr, upstream, enforcer, log_path = capture_rig
    response = send_raw(addr, BARE_CR_REQUEST)
    head = response.split(b"\r\n\r\n", 1)[0].decode()
    assert status_of(response) == 403
    assert "X-Deviation-Reason: unknown_request" in head
    assert upstream.captured == []
    assert enforcer.blocked_count == 1
    assert len(read_records(log_path)) == 1


def test_request_after_an_empty_line_is_blocked(proxy_stack):
    # http.server reads the empty line as an empty request and closes the
    # connection unanswered, so a proxy that forwarded it would answer 502
    request = b"\r\nGET /About.php HTTP/1.1\r\nHost: app.local\r\nUser-Agent: lead/1.0\r\n\r\n"
    response = send_raw(proxy_stack.addr, request)
    head = response.split(b"\r\n\r\n", 1)[0].decode()
    assert status_of(response) == 403
    assert "X-Deviation-Reason: unknown_request" in head
    assert proxy_stack.enforcer.blocked_count == 1
    assert len(read_records(proxy_stack.log_path)) == 1


class _PathInfoUpstream(BaseHTTPRequestHandler):
    """Which script a PHP upstream runs for a target, permissively: the
    path is percent-decoded once and split at / and at \\, and the first
    segment that ends in .php in any case, after anything from a ; on is
    dropped, runs with the rest as PATH_INFO.  With none, a path that ends
    in / runs index.php and any other runs nothing.  Each script run is
    recorded."""

    def do_GET(self):
        path = unquote(self.path.split("?", 1)[0]).replace("\\", "/")
        scripts = [seg.split(";", 1)[0] for seg in path.split("/")]
        script = next((seg for seg in scripts if seg.lower().endswith(".php")),
                      "index.php" if path.endswith("/") else None)
        if script is not None:
            self.server.ran.append(script)
        self.send_response(200 if script else 404)
        self.send_header("Content-Length", "0")
        self.end_headers()

    def log_message(self, *args):
        pass


@pytest.fixture
def path_info_rig(tmp_path):
    """A proxy in front of a _PathInfoUpstream, under a model where About.php
    and index.php are role 0's entry pages and each follows the other, so
    level 2 passes them whatever came before; yields the proxy's address,
    the upstream and the deviation log's path."""
    pages = ["About.php", "index.php"]
    model1 = RequestModel(rows=[ModelRow(n, n, f"GET_{page}", 0, "0") for n, page in enumerate(pages, start=1)])
    model2 = NavigationModel(graphs={"0": {page: pages for page in pages}}, entries={"0": pages})
    upstream = ThreadingHTTPServer(("127.0.0.1", 0), _PathInfoUpstream)
    upstream.daemon_threads = True
    upstream.ran = []
    start_in_thread(upstream)
    log_path = str(tmp_path / "deviations.log")
    enforcer = Enforcer(model1, model2, {}, DeviationLog(log_path))
    proxy = serve_proxy(("127.0.0.1", 0), upstream.server_address, enforcer, 2)
    start_in_thread(proxy)
    yield proxy.server_address, upstream, log_path
    proxy.shutdown()
    proxy.server_close()
    upstream.shutdown()
    upstream.server_close()
    enforcer.log.close()


def get_path(addr, target: str) -> bytes:
    return send_raw(addr, f"GET {target} HTTP/1.1\r\nHost: app.local\r\nUser-Agent: path-info/1.0\r\n\r\n"
                    .encode("latin-1"))


@pytest.mark.parametrize("target", ["/Secret.php/About.php", "/admin/Secret.php/x/About.php", "/Secret.php/"])
def test_path_that_goes_on_past_a_script_is_blocked(path_info_rig, target):
    # the upstream runs Secret.php for each, passing the rest as PATH_INFO,
    # while the last segment names a trained entry page (About.php, or
    # index.php after the slash)
    addr, upstream, log_path = path_info_rig
    response = get_path(addr, target)
    head = response.split(b"\r\n\r\n", 1)[0].decode()
    assert status_of(response) == 403
    assert "X-Deviation-Reason: unknown_request" in head
    assert upstream.ran == []
    assert [record[2:5] for record in read_records(log_path)] == [
        (http1.request_key(http1.parse_header_block(f"GET {target} HTTP/1.1\r\n\r\n")).request_id, "1",
         "unknown_request")]
    assert status_of(get_path(addr, "/About.php")) == 200 and upstream.ran == ["About.php"]


# path segments: trained pages, an untrained script, dot segments, escapes
# that decode to a dot, a slash or a backslash, case, and ; parameters
_SEGMENTS = ["About.php", "index.php", "Secret.php", "x", "", ".", "..", "%2e%2e", "Secret%2ephp", "Secret.PHP",
             "Secret.php%2fAbout.php", "x%5cSecret.php", "Secret.php\\About.php", "Secret.php;x", "About.php;x"]
_path_info_targets = st.tuples(
    st.sampled_from(["", "", "http://app.local"]),
    st.lists(st.sampled_from(_SEGMENTS), min_size=1, max_size=4).map("/".join),
    st.sampled_from(["", "", "?next=/Secret.php/About.php"]),
).map(lambda parts: f"{parts[0]}/{parts[1]}{parts[2]}")


def test_upstream_runs_no_script_but_the_page_the_proxy_verified(path_info_rig):
    addr, upstream, _ = path_info_rig

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(target=_path_info_targets)
    @example(target="/Secret.php/About.php")
    @example(target="/Secret.php/")
    def check(target):
        upstream.ran.clear()
        status = status_of(get_path(addr, target))
        assert upstream.ran in ([], [http1.page_of(target)]), (target, status, upstream.ran)

    check()


def test_blocked_request_never_reaches_upstream(capture_rig):
    addr, upstream, enforcer, log_path = capture_rig
    request = (
        b"GET /Home.php HTTP/1.1\r\n"
        b"Host: app.local\r\n"
        b"User-Agent: intruder/1.0\r\n"
        b"\r\n"
    )
    response = send_raw(addr, request)
    head = response.split(b"\r\n\r\n", 1)[0].decode()
    assert head.startswith("HTTP/1.1 403 Forbidden")
    assert "X-Deviation-Reason: session_flag_mismatch" in head
    assert b"session_flag_mismatch" in response
    assert upstream.captured == []
    assert enforcer.blocked_count == 1
    assert len(read_records(log_path)) == 1


def test_block_page_carries_reason_but_no_model_detail(capture_rig):
    addr, _, _, _ = capture_rig
    response = send_raw(
        addr,
        b"GET /Home.php HTTP/1.1\r\nHost: x\r\nUser-Agent: intruder/2.0\r\n\r\n",
    )
    body = response.split(b"\r\n\r\n", 1)[1].decode()
    assert "session_flag_mismatch" in body
    # the trained-flag detail stays out of the client-visible page
    assert "trained" not in body


def test_block_responses_are_built_once_per_reason():
    assert _BLOCKED.keys() == LEVEL_FOR_REASON.keys()
    for reason, response in _BLOCKED.items():
        assert response == _error_response("403 Forbidden", "Request blocked: " + reason,
                                           f"X-Deviation-Reason: {reason}\r\n")


def test_upstream_down_is_502_not_deviation(trained, tmp_path):
    # upstream address points at a closed port
    dead = socket.socket()
    dead.bind(("127.0.0.1", 0))
    dead_addr = dead.getsockname()
    dead.close()

    log_path = str(tmp_path / "deviations.log")
    enforcer = Enforcer(
        trained.model1, trained.model2,
        load_bindings(BINDINGS_TEXT), DeviationLog(log_path),
    )
    proxy = serve_proxy(("127.0.0.1", 0), dead_addr, enforcer)
    start_in_thread(proxy)
    try:
        response = send_raw(
            ("127.0.0.1", proxy.server_address[1]),
            b"GET /About.php HTTP/1.1\r\nHost: x\r\nUser-Agent: a/1\r\n\r\n",
        )
        assert response.startswith(b"HTTP/1.1 502 Bad Gateway")
        assert enforcer.blocked_count == 0
        import os

        assert not os.path.exists(log_path) or read_records(log_path) == []
    finally:
        proxy.shutdown()
        proxy.server_close()
        enforcer.log.close()


def test_proxied_requests_look_up_no_address(capture_rig, monkeypatch):
    # the upstream is resolved once, when the proxy is built
    addr, upstream, _, _ = capture_rig
    lookup = socket.getaddrinfo
    lookups = []

    def counted(*args, **kwargs):
        if threading.current_thread().name.startswith("proxy worker"):
            lookups.append(args)
        return lookup(*args, **kwargs)

    monkeypatch.setattr(socket, "getaddrinfo", counted)
    requests = [f"GET /About.php HTTP/1.1\r\nHost: x\r\nUser-Agent: lookup-{i}\r\n\r\n".encode()
                for i in range(5)]
    statuses = [status_of(send_raw(addr, request)) for request in requests]
    assert statuses == [200] * 5
    assert len(upstream.captured) == 5
    assert lookups == []


def test_upstream_addresses_are_tried_in_order(trained, tmp_path, monkeypatch):
    # a refused first address falls through to the next, as with
    # socket.create_connection, and its socket is closed
    upstream = CaptureUpstream()
    start_in_thread(upstream)
    dead = socket.socket()
    dead.bind(("127.0.0.1", 0))
    dead_addr = dead.getsockname()
    dead.close()
    stream = (socket.AF_INET, socket.SOCK_STREAM, socket.IPPROTO_TCP, "")
    resolved = []

    def resolve(host, port, *args, **kwargs):
        resolved.append((host, port))
        return [(*stream, dead_addr), (*stream, upstream.server_address)]

    enforcer = Enforcer(trained.model1, trained.model2, load_bindings(BINDINGS_TEXT),
                        DeviationLog(str(tmp_path / "deviations.log")))
    with monkeypatch.context() as patch:
        patch.setattr(socket, "getaddrinfo", resolve)
        proxy = serve_proxy(("127.0.0.1", 0), ("upstream.test", 8008), enforcer)
    assert resolved == [("upstream.test", 8008)]
    connects = []

    class Recorded(socket.socket):
        def connect(self, address):
            connects.append((address, self))
            return super().connect(address)

    monkeypatch.setattr(socket, "socket", Recorded)
    start_in_thread(proxy)
    try:
        request = b"GET /About.php HTTP/1.1\r\nHost: x\r\nUser-Agent: order/1\r\n\r\n"
        assert status_of(send_raw(("127.0.0.1", proxy.server_address[1]), request)) == 200
        assert upstream.captured == [request]
    finally:
        proxy.shutdown()
        proxy.server_close()
        upstream.shutdown()
        upstream.server_close()
        enforcer.log.close()
    refused = [sock for address, sock in connects if address == dead_addr]
    assert len(refused) == 1
    assert refused[0].fileno() == -1


def test_login_hook_binds_role_through_proxy(proxy_stack):
    addr = proxy_stack.addr
    body = b"username=mark&password=maplesyrup"
    login = (
        b"POST /Login.php HTTP/1.1\r\n"
        b"Host: app.local\r\n"
        b"User-Agent: hook-check/1.0\r\n"
        b"Content-Type: application/x-www-form-urlencoded\r\n"
        b"Content-Length: " + str(len(body)).encode() + b"\r\n"
        b"\r\n" + body
    )
    response = send_raw(addr, login)
    head = response.split(b"\r\n\r\n", 1)[0].decode()
    assert status_of(response) == 302
    cookie = None
    for line in head.split("\r\n"):
        if line.lower().startswith("set-cookie:"):
            cookie = line.split(":", 1)[1].split(";", 1)[0].split("=", 1)[1].strip()
    assert cookie

    follow = (
        b"GET /Home.php HTTP/1.1\r\n"
        b"Host: app.local\r\n"
        b"User-Agent: hook-check/1.0\r\n"
        b"Cookie: PHPSESSID=" + cookie.encode() + b"\r\n"
        b"\r\n"
    )
    response = send_raw(addr, follow)
    # only a manager-bound client passes level 1 with this flag
    assert status_of(response) == 200
    assert proxy_stack.enforcer.blocked_count == 0


def test_logout_hook_clears_binding(tmp_path):
    # toy model where Logout.php is trained, so the request relays and the
    # hook can fire
    triples = [
        ("GET_Home.php", 1, "manager"),
        ("GET_Logout.php", 1, "manager"),
    ]
    model1 = RequestModel(rows=[
        ModelRow(sno=i, convid=i, reqresid=t[0], session_flag=t[1], role=t[2])
        for i, t in enumerate(triples, start=1)
    ])
    model2 = NavigationModel(
        graphs={"manager": {"Home.php": ["Logout.php"]}},
        entries={"manager": ["Home.php"]},
    )
    upstream = CaptureUpstream()
    start_in_thread(upstream)
    enforcer = Enforcer(model1, model2, load_bindings(BINDINGS_TEXT),
                        DeviationLog(str(tmp_path / "d.log")))
    proxy = serve_proxy(("127.0.0.1", 0), upstream.server_address, enforcer)
    start_in_thread(proxy)
    addr = ("127.0.0.1", proxy.server_address[1])
    try:
        enforcer.note_login("127.0.0.1", "hook/1", "mark", "ck")
        get = (
            b"GET /%s HTTP/1.1\r\nHost: x\r\nUser-Agent: hook/1\r\n"
            b"Cookie: PHPSESSID=ck\r\n\r\n"
        )
        assert status_of(send_raw(addr, get % b"Home.php")) == 200
        assert status_of(send_raw(addr, get % b"Logout.php")) == 200
        # role reverted to 0: the same walk is now a role mismatch
        response = send_raw(addr, get % b"Home.php")
        head = response.split(b"\r\n\r\n", 1)[0].decode()
        assert head.startswith("HTTP/1.1 403")
        assert "X-Deviation-Reason: role_mismatch" in head
    finally:
        proxy.shutdown()
        proxy.server_close()
        upstream.shutdown()
        upstream.server_close()
        enforcer.log.close()


def test_concurrent_clients_are_isolated(proxy_stack):
    addr = proxy_stack.addr
    results = {}

    def walk(name):
        request = (
            f"GET /About.php HTTP/1.1\r\nHost: x\r\nUser-Agent: {name}\r\n\r\n"
        ).encode()
        results[name] = send_raw(addr, request)

    threads = [threading.Thread(target=walk, args=(f"client-{i}",)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(results) == 8
    for name, response in results.items():
        assert status_of(response) == 200, name
    assert proxy_stack.enforcer.blocked_count == 0


# -- framing against an HTTP/1.1 keep-alive upstream ---------------------------


@pytest.fixture
def framing_rig(keepalive_upstream, tmp_path):
    """Proxy in front of the keep-alive upstream, with a toy model under
    which GET, HEAD and POST of /a.php pass for role 0."""
    model1 = RequestModel(rows=[
        ModelRow(sno=i, convid=i, reqresid=f"{method}_a.php", session_flag=0, role="0")
        for i, method in enumerate(["GET", "HEAD", "POST"], start=1)
    ])
    model2 = NavigationModel(graphs={"0": {"a.php": ["a.php"]}}, entries={"0": ["a.php"]})
    log_path = str(tmp_path / "deviations.log")
    enforcer = Enforcer(model1, model2, {}, DeviationLog(log_path))
    proxy = serve_proxy(("127.0.0.1", 0), keepalive_upstream.server_address, enforcer)
    start_in_thread(proxy)
    yield ("127.0.0.1", proxy.server_address[1]), keepalive_upstream, enforcer, log_path
    proxy.shutdown()
    proxy.server_close()
    enforcer.log.close()


def head_of(method: str, extra: bytes = b"") -> bytes:
    return method.encode() + b" /a.php HTTP/1.1\r\nHost: x\r\nUser-Agent: framing/1\r\n" + extra + b"\r\n"


@pytest.mark.parametrize("method, response", [
    ("HEAD", b"HTTP/1.1 200 OK\r\nContent-Type: text/plain\r\nContent-Length: 5\r\n\r\n"),
    ("GET", b"HTTP/1.1 204 No Content\r\nServer: keep-alive\r\n\r\n"),
    ("GET", b"HTTP/1.1 304 Not Modified\r\nETag: \"v1\"\r\nContent-Length: 5\r\n\r\n"),
], ids=["head", "204", "304"])
def test_response_without_a_body_is_relayed_at_once(framing_rig, method, response):
    # the upstream keeps the connection open and sends no body: waiting for
    # one (or for the close) would hold the client until the I/O timeout
    addr, upstream, _, _ = framing_rig
    upstream.responses.append(response)
    assert send_raw(addr, head_of(method)) == response
    assert upstream.received == [head_of(method)]


def test_client_sees_the_response_end_before_the_upstream_socket_closes(framing_rig, monkeypatch):
    # the upstream socket's close waits until the client has read to the end
    # of the response; a proxy that shut the client's side only after that
    # close would keep the client waiting until the wait timed out
    addr, upstream, _, _ = framing_rig
    upstream.responses.append(CANNED_RESPONSE)
    ended = threading.Event()
    closes = []

    class HeldClose(socket.socket):
        def close(self):
            if not closes:
                closes.append(ended.wait(2))
            super().close()

    connect = EnforcementProxy.connect_upstream

    def held_connect(proxy):
        up = connect(proxy)
        held = HeldClose(up.family, up.type, up.proto, fileno=up.detach())
        held.settimeout(5)
        return held

    monkeypatch.setattr(EnforcementProxy, "connect_upstream", held_connect)
    with socket.create_connection(addr, timeout=5) as sock:
        sock.sendall(head_of("GET"))
        response = read_to_close(sock)
        ended.set()
    assert response == CANNED_RESPONSE
    deadline = time.monotonic() + 5
    while not closes and time.monotonic() < deadline:
        time.sleep(0.01)
    assert closes == [True]


def test_chunked_response_reaches_the_client_at_once(framing_rig):
    addr, upstream, _, _ = framing_rig
    upstream.responses.append(
        b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n"
    )
    conn = http.client.HTTPConnection(*addr, timeout=5)
    try:
        conn.request("GET", "/a.php", headers={"User-Agent": "framing/1"})
        response = conn.getresponse()
        assert response.status == 200
        assert response.read() == b"hello"
    finally:
        conn.close()


@pytest.mark.parametrize("lengths", [
    b"Content-Length: five\r\n",
    b"Content-Length: -5\r\n",
    b"Content-Length: 5\r\nContent-Length: 7\r\n",
], ids=["not-a-number", "negative", "conflicting"])
def test_response_with_bad_content_length_is_502(framing_rig, lengths):
    addr, upstream, enforcer, _ = framing_rig
    upstream.responses.append(b"HTTP/1.1 200 OK\r\n" + lengths + b"\r\nhello")
    response = send_raw(addr, head_of("GET"))
    assert response.startswith(b"HTTP/1.1 502 Bad Gateway")
    assert b"hello" not in response
    assert enforcer.blocked_count == 0


@pytest.mark.parametrize("fields", [
    b"Content-Length: 5\r\nno colon here\r\n",
    b"Content-Length: 5\r\n\nX-Hidden: 1\r\n",
    b"Content-Length : 5\r\n",
    b"Server: x\r\n Content-Length: 5\r\n",
], ids=["no-colon", "text-after-bare-lf-blank-line", "space-before-colon", "obs-fold"])
def test_response_with_malformed_field_lines_is_502(framing_rig, fields):
    addr, upstream, enforcer, _ = framing_rig
    upstream.responses.append(b"HTTP/1.1 200 OK\r\n" + fields + b"\r\nhello")
    response = send_raw(addr, head_of("GET"))
    assert response.startswith(b"HTTP/1.1 502 Bad Gateway")
    assert b"hello" not in response
    assert enforcer.blocked_count == 0


def test_response_with_a_bare_cr_is_502(framing_rig):
    # a client that takes the CR as a line break would read a body of 0 bytes
    addr, upstream, enforcer, _ = framing_rig
    upstream.responses.append(b"HTTP/1.1 200 OK\r\nX-Note: a\rContent-Length: 0\r\nContent-Length: 5\r\n\r\nhello")
    response = send_raw(addr, head_of("GET"))
    assert response.startswith(b"HTTP/1.1 502 Bad Gateway")
    assert b"hello" not in response
    assert enforcer.blocked_count == 0


def test_response_after_an_empty_line_is_502(framing_rig):
    # http.client reads the empty line as a bad status line
    addr, upstream, enforcer, _ = framing_rig
    upstream.responses.append(b"\r\nHTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhello")
    response = send_raw(addr, head_of("GET"))
    assert response.startswith(b"HTTP/1.1 502 Bad Gateway")
    assert b"hello" not in response
    assert enforcer.blocked_count == 0


@pytest.mark.parametrize("cause", ["connect", "malformed response", "timeout"])
def test_each_502_is_logged_once_with_its_cause(keepalive_upstream, caplog, monkeypatch, cause):
    # a refused upstream port, a head with two Content-Length fields, or an
    # upstream that accepts and never answers: one warning names the cause
    # and the request id, never the cookie
    address = keepalive_upstream.server_address
    if cause == "connect":
        dead = socket.socket()
        dead.bind(("127.0.0.1", 0))
        address = dead.getsockname()
        dead.close()
    if cause == "timeout":
        # the kernel completes the handshake of a listener that never accepts
        silent = socket.create_server(("127.0.0.1", 0))
        address = silent.getsockname()
        monkeypatch.setattr("phpwarden.proxy._IO_TIMEOUT", 0.2)
    keepalive_upstream.responses.append(b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\nContent-Length: 5\r\n\r\nhello")
    model1 = RequestModel(rows=[ModelRow(sno=1, convid=1, reqresid="GET_a.php", session_flag=1, role="0")])
    model2 = NavigationModel(graphs={"0": {}}, entries={"0": ["a.php"]})
    proxy = serve_proxy(("127.0.0.1", 0), address, Enforcer(model1, model2, {}, None))
    start_in_thread(proxy)
    try:
        with caplog.at_level(logging.WARNING, logger="phpwarden.proxy"):
            response = send_raw(proxy.server_address, head_of("GET", b"Cookie: PHPSESSID=s3cret\r\n"))
    finally:
        proxy.shutdown()
        proxy.server_close()
        if cause == "timeout":
            silent.close()
    assert response.startswith(b"HTTP/1.1 502 Bad Gateway")
    records = [record.getMessage() for record in caplog.records if record.name == "phpwarden.proxy"]
    assert len(records) == 1, records
    assert f"GET_a.php: {cause}: " in records[0] and "s3cret" not in records[0]


def test_large_response_streams_before_the_upstream_finishes(framing_rig):
    # the client must see the first 64 KiB while the upstream still holds
    # back the rest: the proxy relays in pieces, it does not buffer it whole
    addr, upstream, _, _ = framing_rig
    first, last = b"a" * 65536, b"b" * 3 * 65536
    head = b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n" % (len(first) + len(last))
    released = threading.Event()
    upstream.responses.append([head + first, released, last])
    with socket.create_connection(addr, timeout=5) as sock:
        sock.sendall(head_of("GET"))
        got = b""
        while len(got) < len(head) + len(first):
            chunk = sock.recv(65536)
            assert chunk, "proxy closed before the first piece"
            got += chunk
        released.set()
        while chunk:
            chunk = sock.recv(65536)
            got += chunk
    assert got == head + first + last


CHUNKED_HEAD = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"


def read_until(sock: socket.socket, got: bytes, size: int) -> bytes:
    while len(got) < size:
        chunk = sock.recv(65536)
        assert chunk, "proxy closed early"
        got += chunk
    return got


def read_to_close(sock: socket.socket, got: bytes = b"") -> bytes:
    while chunk := sock.recv(65536):
        got += chunk
    return got


def timed_send_raw(addr, payload: bytes) -> tuple[bytes, float]:
    started = time.monotonic()
    response = send_raw(addr, payload)
    return response, time.monotonic() - started


@pytest.mark.parametrize("body", [
    b"5\r\nhello\r\n0\r\n\r\n",
    b"5;name=value\r\nhello\r\n1a\r\n" + b"z" * 26 + b"\r\nF ; x\r\n" + b"f" * 15 + b"\r\n000\r\n"
    b"X-Trailer: t\r\nX-More: u\r\n\r\n",
], ids=["one-chunk", "extensions-and-trailers"])
def test_chunked_response_ends_the_connection_at_its_last_chunk(framing_rig, body):
    # the upstream keeps its connection open: the relay must end at the
    # last chunk, not wait for a close that never comes
    addr, upstream, _, _ = framing_rig
    upstream.responses.append(CHUNKED_HEAD + body)
    response, elapsed = timed_send_raw(addr, head_of("GET"))
    assert response == CHUNKED_HEAD + body
    assert elapsed < 1


def test_chunked_response_split_across_reads_is_framed(framing_rig):
    # cuts inside a size line, between CR and LF, inside data and inside
    # the trailer section
    addr, upstream, _, _ = framing_rig
    response = CHUNKED_HEAD + b"10\r\n0123456789abcdef\r\n0\r\nX: y\r\n\r\n"
    cuts = [len(CHUNKED_HEAD) + 1, len(CHUNKED_HEAD) + 3, len(CHUNKED_HEAD) + 10,
            len(response) - 9, len(response) - 1]
    pieces = [response[a:b] for a, b in zip([0] + cuts, cuts + [len(response)])]
    events = [threading.Event() for _ in cuts]
    parts = [pieces[0]]
    for event, piece in zip(events, pieces[1:]):
        parts += [event, piece]
    upstream.responses.append(parts)

    def release():
        for event in events:
            time.sleep(0.02)
            event.set()

    threading.Thread(target=release, daemon=True).start()
    got, elapsed = timed_send_raw(addr, head_of("GET"))
    assert got == response
    assert elapsed < 1


def test_large_chunked_response_streams_before_the_upstream_finishes(framing_rig):
    addr, upstream, _, _ = framing_rig
    first, last = b"a" * 65536, b"b" * 3 * 65536
    opening = CHUNKED_HEAD + b"%x\r\n" % (len(first) + len(last)) + first
    closing = last + b"\r\n0\r\n\r\n"
    released = threading.Event()
    upstream.responses.append([opening, released, closing])
    with socket.create_connection(addr, timeout=5) as sock:
        sock.sendall(head_of("GET"))
        got = read_until(sock, b"", len(opening))
        released.set()
        started = time.monotonic()
        got = read_to_close(sock, got)
    assert got == opening + closing
    assert time.monotonic() - started < 1


@pytest.mark.parametrize("body", [
    b"zz\r\nhello\r\n0\r\n\r\n",
    b"+5\r\nhello\r\n0\r\n\r\n",
    b"0x5\r\nhello\r\n0\r\n\r\n",
    b" 5\r\nhello\r\n0\r\n\r\n",
    b"\r\nhello\r\n0\r\n\r\n",
    b"5\r\nhello\r\n3\r\nhello\r\n0\r\n\r\n",
    b"5" + b"0" * 65536,
], ids=["not-hex", "signed", "0x-prefix", "leading-space", "empty", "data-longer-than-size",
        "overlong-line"])
def test_bad_chunked_framing_closes_the_connection(framing_rig, body):
    addr, upstream, enforcer, _ = framing_rig
    upstream.responses.append(CHUNKED_HEAD + body)
    response, elapsed = timed_send_raw(addr, head_of("GET"))
    assert elapsed < 1
    # whatever was relayed is a prefix that stops short of the bad line
    assert (CHUNKED_HEAD + body).startswith(response)
    assert not response.endswith(b"0\r\n\r\n")
    assert enforcer.blocked_count == 0


@pytest.mark.parametrize("split", [False, True], ids=["one-write", "final-head-later"])
def test_interim_response_is_relayed_and_the_final_one_frames_the_body(framing_rig, split):
    addr, upstream, _, _ = framing_rig
    interim = b"HTTP/1.1 103 Early Hints\r\nLink: </a.css>\r\n\r\nHTTP/1.1 100 Continue\r\n\r\n"
    final = b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhello"
    released = threading.Event()
    upstream.responses.append([interim, released, final] if split else interim + final)
    with socket.create_connection(addr, timeout=5) as sock:
        sock.sendall(head_of("GET"))
        got = b""
        if split:
            got = read_until(sock, got, len(interim))
            assert got == interim
            released.set()
        started = time.monotonic()
        got = read_to_close(sock, got)
    assert got == interim + final
    assert time.monotonic() - started < 1


def test_switching_protocols_is_relayed_until_the_upstream_closes(framing_rig):
    addr, upstream, _, _ = framing_rig
    response = b"HTTP/1.1 101 Switching Protocols\r\nUpgrade: x\r\nConnection: Upgrade\r\n\r\nframe-1"
    upstream.responses.append(response)
    with socket.create_connection(addr, timeout=5) as sock:
        sock.sendall(head_of("GET"))
        got = read_until(sock, b"", len(response))
        upstream.close_connections()
        got = read_to_close(sock, got)
    assert got == response


def test_bare_lf_head_is_answered_while_the_client_keeps_its_side_open(framing_rig):
    # the head ends at its bare-LF blank line: the proxy must not wait for
    # a CRLF one, or for the client to close
    addr, upstream, enforcer, _ = framing_rig
    with socket.create_connection(addr, timeout=2) as sock:
        sock.sendall(b"GET /b.php HTTP/1.1\nHost: x\nUser-Agent: lf\n\n")
        response = read_to_close(sock)
    head = response.split(b"\r\n\r\n", 1)[0].decode()
    assert status_of(response) == 403
    assert "X-Deviation-Reason: unknown_request" in head
    assert upstream.received == []
    assert enforcer.blocked_count == 1


CONTINUE = b"HTTP/1.1 100 Continue\r\n\r\n"


def test_blocked_request_expecting_continue_is_answered_without_its_body(framing_rig):
    # the client holds its body back until it hears 100 Continue
    addr, upstream, enforcer, _ = framing_rig
    request = (b"POST /b.php HTTP/1.1\r\nHost: x\r\nUser-Agent: expect/1\r\n"
               b"Expect: 100-continue\r\nContent-Length: 5\r\n\r\n")
    with socket.create_connection(addr, timeout=2) as sock:
        sock.sendall(request)
        response = read_to_close(sock)
    assert status_of(response) == 403
    assert upstream.received == []
    assert enforcer.blocked_count == 1


def test_blocked_request_is_answered_before_its_body_arrives(framing_rig):
    addr, upstream, enforcer, _ = framing_rig
    request = b"POST /b.php HTTP/1.1\r\nHost: x\r\nUser-Agent: late/1\r\nContent-Length: 5\r\n\r\n"
    with socket.create_connection(addr, timeout=2) as sock:
        sock.sendall(request)
        response = read_to_close(sock)
        sock.sendall(b"hello")
    assert status_of(response) == 403
    assert upstream.received == []
    assert enforcer.blocked_count == 1


def test_passing_request_whose_body_the_client_cuts_short_is_not_forwarded(framing_rig):
    addr, upstream, enforcer, _ = framing_rig
    upstream.responses.append(CANNED_RESPONSE)
    with socket.create_connection(addr, timeout=2) as sock:
        sock.sendall(head_of("POST", b"Content-Length: 5\r\n") + b"he")
        sock.shutdown(socket.SHUT_WR)
        assert read_to_close(sock) == b""
    assert upstream.received == []
    assert enforcer.blocked_count == 0


# read as more head fields by an upstream that ends heads only at CRLF CRLF:
# a chunked framing, then a request hidden behind it
HIDDEN_FIELDS = b"Transfer-Encoding: chunked\r\n\r\n0\r\n\r\nGET /Secret.php HTTP/1.1\r\nHost: x\r\n\r\n"
EXPECTING_HIDDEN = head_of("POST", b"Expect: 100-continue\r\nContent-Length: %d\r\n" % len(HIDDEN_FIELDS))


@pytest.mark.parametrize("request_head", [
    EXPECTING_HIDDEN.replace(b"\r\n", b"\n"),
    EXPECTING_HIDDEN[:-2] + b"\n",
], ids=["bare-lf-blank-line", "crlf-lf-blank-line"])
def test_body_sent_later_behind_a_bare_lf_blank_line_never_reaches_upstream(framing_rig, request_head):
    # the body comes in a second write, after the head was read alone
    addr, upstream, enforcer, _ = framing_rig
    upstream.responses.append(CANNED_RESPONSE)
    with socket.create_connection(addr, timeout=2) as sock:
        sock.sendall(request_head)
        response = sock.recv(65536)
        if response == CONTINUE:
            sock.sendall(HIDDEN_FIELDS)
        response = read_to_close(sock, response)
    assert status_of(response) == 403
    assert upstream.received == []
    assert enforcer.blocked_count == 1


def test_passing_request_expecting_continue_gets_100_before_its_body_is_read(framing_rig):
    addr, upstream, enforcer, _ = framing_rig
    upstream.responses.append(CANNED_RESPONSE)
    request = head_of("POST", b"Expect: 100-continue\r\nContent-Length: 5\r\n")
    with socket.create_connection(addr, timeout=2) as sock:
        sock.sendall(request)
        got = read_until(sock, b"", len(CONTINUE))
        assert got == CONTINUE
        sock.sendall(b"hello")
        response = read_to_close(sock, got)
    assert response == CONTINUE + CANNED_RESPONSE
    assert upstream.received == [request + b"hello"]
    assert enforcer.blocked_count == 0


def test_http10_request_expecting_continue_gets_no_100(framing_rig):
    # RFC 9110 section 10.1.1: an HTTP/1.0 request's 100-continue is ignored
    addr, upstream, _, _ = framing_rig
    upstream.responses.append(CANNED_RESPONSE)
    request = (b"POST /a.php HTTP/1.0\r\nHost: x\r\nUser-Agent: expect/1\r\n"
               b"Expect: 100-continue\r\nContent-Length: 5\r\n\r\nhello")
    assert send_raw(addr, request) == CANNED_RESPONSE
    assert upstream.received == [request]


# one byte past the proxy's 64 KiB head limit with no blank line yet: the
# proxy reads all of it before it answers, so closing sends no reset
OVERLONG_HEAD = (b"GET /a.php HTTP/1.1\r\nHost: x\r\nX-Pad: " + b"p" * 65536)[:65537]


@pytest.mark.parametrize("payload, keep_open", [
    # the client closes its side before the blank line
    (b"GET /a.php HTTP/1.1\r\nHost: x\r\nUser-Agent: framing/1\r\n", False),
    (OVERLONG_HEAD, True),
], ids=["closed-before-blank-line", "longer-than-64kib"])
def test_truncated_request_head_is_blocked(framing_rig, payload, keep_open):
    addr, upstream, enforcer, log_path = framing_rig
    upstream.responses.append(CANNED_RESPONSE)
    with socket.create_connection(addr, timeout=5) as sock:
        sock.sendall(payload)
        if not keep_open:
            sock.shutdown(socket.SHUT_WR)
        response = b""
        while chunk := sock.recv(65536):
            response += chunk
    head = response.split(b"\r\n\r\n", 1)[0].decode()
    assert status_of(response) == 403
    assert "X-Deviation-Reason: unknown_request" in head
    assert upstream.received == []
    assert enforcer.blocked_count == 1
    records = read_records(log_path)
    assert len(records) == 1
    assert "cut off" in records[0][5]


@pytest.mark.parametrize("framing, body, cause", [
    (b"Transfer-Encoding: chunked\r\n", b"5\r\nhello\r\n0\r\n\r\n", "Transfer-Encoding"),
    (b"Content-Length: 5\r\nTransfer-Encoding: chunked\r\n", b"5\r\nhello\r\n0\r\n\r\n",
     "Transfer-Encoding"),
    (b"Content-Length: 5\r\nContent-Length: 5\r\n", b"hello", "Content-Length"),
    (b"Content-Length: 5\r\nContent-Length: 12\r\n", b"hello", "Content-Length"),
    (b"Content-Length: +5\r\n", b"hello", "Content-Length"),
    (b"Content-Length: 5, 5\r\n", b"hello", "Content-Length"),
], ids=["chunked", "cl-and-te", "repeated-cl", "conflicting-cl", "signed-cl", "list-cl"])
def test_ambiguous_request_framing_is_blocked(framing_rig, framing, body, cause):
    addr, upstream, enforcer, log_path = framing_rig
    upstream.responses.append(CANNED_RESPONSE)
    response = send_raw(addr, head_of("POST", framing) + body)
    head = response.split(b"\r\n\r\n", 1)[0].decode()
    assert status_of(response) == 403
    assert "X-Deviation-Reason: unknown_request" in head
    assert upstream.received == []
    assert enforcer.blocked_count == 1
    records = read_records(log_path)
    assert len(records) == 1 and len(records[0]) == 6
    assert records[0][4] == "unknown_request"
    assert cause in records[0][5]


SMUGGLED = b"GET /Secret.php HTTP/1.1\r\nHost: x\r\n\r\n"


@pytest.mark.parametrize("field", [
    b"Content-Length : %d\r\n", b"Content-Length\t: %d\r\n", b"X-Pad: 1\r\n Content-Length: %d\r\n",
], ids=["space-before-colon", "tab-before-colon", "obs-fold"])
def test_request_smuggled_behind_a_whitespace_content_length_is_blocked(framing_rig, field):
    # an upstream that ignores the malformed field reads the body as a
    # second, unverified request
    addr, upstream, enforcer, log_path = framing_rig
    upstream.responses.extend([CANNED_RESPONSE, CANNED_RESPONSE])
    response = send_raw(addr, head_of("POST", field % len(SMUGGLED)) + SMUGGLED)
    head = response.split(b"\r\n\r\n", 1)[0].decode()
    assert status_of(response) == 403
    assert "X-Deviation-Reason: unknown_request" in head
    assert upstream.received == []
    assert enforcer.blocked_count == 1
    assert len(read_records(log_path)) == 1


@pytest.fixture
def login_rig(keepalive_upstream, tmp_path):
    """Proxy in front of the keep-alive upstream, with a toy model in which
    role 0 may POST /Login.php and /Signin.php and GET /Login.php, and only
    a manager may GET /Home.php with a session."""
    triples = [("POST_Login.php", 0, "0"), ("POST_Signin.php", 0, "0"), ("GET_Login.php", 0, "0"),
               ("GET_Home.php", 1, "manager")]
    model1 = RequestModel(rows=[ModelRow(sno=i, convid=i, reqresid=reqresid, session_flag=flag, role=role)
                                for i, (reqresid, flag, role) in enumerate(triples, start=1)])
    model2 = NavigationModel(graphs={"0": {"Login.php": [], "Signin.php": []}, "manager": {"Home.php": []}},
                             entries={"0": ["Login.php", "Signin.php"], "manager": ["Home.php"]})
    enforcer = Enforcer(model1, model2, load_bindings(BINDINGS_TEXT),
                        DeviationLog(str(tmp_path / "deviations.log")))
    proxy = serve_proxy(("127.0.0.1", 0), keepalive_upstream.server_address, enforcer)
    start_in_thread(proxy)
    yield ("127.0.0.1", proxy.server_address[1]), keepalive_upstream, enforcer
    proxy.shutdown()
    proxy.server_close()
    enforcer.log.close()


def login_then_home(addr, password: bytes) -> tuple[bytes, bytes]:
    """(login response, response to the next GET /Home.php with cookie ck)."""
    body = b"username=mark&password=" + password
    login = (b"POST /Login.php HTTP/1.1\r\nHost: x\r\nUser-Agent: login/1\r\n"
             b"Content-Length: %d\r\n\r\n" % len(body) + body)
    response = send_raw(addr, login)
    home = b"GET /Home.php HTTP/1.1\r\nHost: x\r\nUser-Agent: login/1\r\nCookie: PHPSESSID=ck\r\n\r\n"
    return response, send_raw(addr, home)


def test_login_behind_an_interim_response_binds_the_role(login_rig):
    # the Set-Cookie sits in the final head, not in the 100 before it
    addr, upstream, enforcer = login_rig
    upstream.responses += [
        b"HTTP/1.1 100 Continue\r\n\r\n"
        b"HTTP/1.1 302 Found\r\nLocation: /Home.php\r\nSet-Cookie: PHPSESSID=ck; Path=/\r\n"
        b"Content-Length: 0\r\n\r\n",
        CANNED_RESPONSE,
    ]
    login, home = login_then_home(addr, b"maplesyrup")
    assert login.startswith(b"HTTP/1.1 100 Continue\r\n\r\nHTTP/1.1 302 Found\r\n")
    assert status_of(home) == 200
    assert enforcer.blocked_count == 0


def test_failed_login_that_sets_a_cookie_binds_no_role(login_rig):
    # an app that starts a session on its login page sets the cookie on a
    # wrong password too; only a redirect that sets it is a login
    addr, upstream, enforcer = login_rig
    upstream.responses += [
        b"HTTP/1.1 200 OK\r\nSet-Cookie: PHPSESSID=ck; Path=/\r\nContent-Length: 5\r\n\r\nretry",
        CANNED_RESPONSE,
    ]
    login, home = login_then_home(addr, b"wrong")
    assert status_of(login) == 200
    head = home.split(b"\r\n\r\n", 1)[0].decode()
    assert status_of(home) == 403
    assert "X-Deviation-Reason: role_mismatch" in head
    assert len(upstream.received) == 1
    assert enforcer.blocked_count == 1


@pytest.mark.parametrize("method, page", [("POST", "Signin.php"), ("GET", "Login.php")])
def test_redirect_that_sets_the_cookie_binds_no_role_but_on_a_login_post(login_rig, method, page):
    addr, upstream, enforcer = login_rig
    upstream.responses += [b"HTTP/1.1 302 Found\r\nLocation: /Home.php\r\nSet-Cookie: PHPSESSID=ck; Path=/\r\n"
                           b"Content-Length: 0\r\n\r\n"]
    # the body a login POST would carry, on the GET too
    body = b"username=mark&password=maplesyrup"
    request = (f"{method} /{page} HTTP/1.1\r\nHost: x\r\nUser-Agent: login/1\r\n"
               f"Content-Length: {len(body)}\r\n\r\n").encode() + body
    assert status_of(send_raw(addr, request)) == 302
    home = send_raw(addr, b"GET /Home.php HTTP/1.1\r\nHost: x\r\nUser-Agent: login/1\r\n"
                          b"Cookie: PHPSESSID=ck\r\n\r\n")
    assert status_of(home) == 403
    assert "X-Deviation-Reason: role_mismatch" in home.split(b"\r\n\r\n", 1)[0].decode()
    assert len(upstream.received) == 1
    assert enforcer.blocked_count == 1


@pytest.mark.parametrize("response, passed", [
    (b"HTTP/1.1 200 OK\r\nSet-Cookie: PHPSESSID=ck; Path=/\r\nContent-Length: 5\r\n\r\nretry", False),
    (b"HTTP/1.1 302 Found\r\nLocation: /Home.php\r\nSet-Cookie: PHPSESSID=ck; Path=/\r\n"
     b"Content-Length: 0\r\n\r\n", True),
], ids=["200-that-sets-the-cookie", "redirect-that-sets-the-cookie"])
def test_scripted_login_follows_the_gates_login_rule(login_rig, response, passed):
    # the gate binds no role on a 200 that sets the cookie, so the scenario
    # login step must not take that for a login either
    addr, upstream, enforcer = login_rig
    upstream.responses += [response, CANNED_RESPONSE]
    script = "client c login/1\nlogin c mark maplesyrup\nrequest c GET /Home.php expect=don't_block\n"
    result = run_scenario(script, addr, name="login")
    assert result.passed is passed, result.transcript
    if not passed:
        assert "FAIL line 2: login as mark got no session cookie (status 200)" in result.transcript
    assert [head.split(b" ", 2)[:2] for head in upstream.received] == (
        [[b"POST", b"/Login.php"], [b"GET", b"/Home.php"]] if passed else [[b"POST", b"/Login.php"]])


def test_each_proxied_request_is_parsed_once(proxy_stack, monkeypatch):
    original = profile_store.parse_header_block
    calls = []

    def counted(text):
        calls.append(text)
        return original(text)

    patched = []
    for name, module in list(sys.modules.items()):
        if name.startswith("phpwarden") and getattr(module, "parse_header_block", None) is original:
            monkeypatch.setattr(module, "parse_header_block", counted)
            patched.append(name)
    assert "phpwarden.enforcer" in patched
    requests = [
        f"GET /About.php HTTP/1.1\r\nHost: x\r\nUser-Agent: once-{i}\r\n\r\n".encode() for i in range(4)
    ] + [b"GET /Home.php HTTP/1.1\r\nHost: x\r\nUser-Agent: once-blocked\r\n\r\n"]
    statuses = [status_of(send_raw(proxy_stack.addr, request)) for request in requests]
    assert statuses == [200, 200, 200, 200, 403]
    assert len(calls) == len(requests)


def test_each_proxied_request_is_keyed_once(keepalive_upstream, tmp_path, monkeypatch, caplog):
    # a login, a page, a logout, a blocked page and a 502: evaluate keys each
    # request, and the session rule and the 502 log read that key; page_of
    # runs only inside it
    keys, stray_pages = [], []
    inside = threading.local()
    original_key, original_page = http1.request_key, http1.page_of

    def counted_key(*args):
        keys.append(args[0].target)
        inside.depth = getattr(inside, "depth", 0) + 1
        try:
            return original_key(*args)
        finally:
            inside.depth -= 1

    def counted_page(target):
        if not getattr(inside, "depth", 0):
            stray_pages.append(target)
        return original_page(target)

    for name, module in list(sys.modules.items()):
        if name.startswith("phpwarden"):
            for attr, original, counted in (("request_key", original_key, counted_key),
                                            ("page_of", original_page, counted_page)):
                if getattr(module, attr, None) is original:
                    monkeypatch.setattr(module, attr, counted)
    triples = [("POST_Login.php", 0, "0"), ("GET_About.php", 0, "0"),
               ("GET_Home.php", 1, "manager"), ("GET_Logout.php", 1, "manager")]
    model1 = RequestModel(rows=[ModelRow(sno=i, convid=i, reqresid=reqresid, session_flag=flag, role=role)
                                for i, (reqresid, flag, role) in enumerate(triples, start=1)])
    model2 = NavigationModel(graphs={"0": {}, "manager": {"Home.php": ["Logout.php"]}},
                             entries={"0": ["Login.php", "About.php"], "manager": ["Home.php"]})
    enforcer = Enforcer(model1, model2, load_bindings(BINDINGS_TEXT),
                        DeviationLog(str(tmp_path / "deviations.log")))
    proxy = serve_proxy(("127.0.0.1", 0), keepalive_upstream.server_address, enforcer)
    start_in_thread(proxy)
    addr = proxy.server_address
    keepalive_upstream.responses += [
        b"HTTP/1.1 302 Found\r\nLocation: /Home.php\r\nSet-Cookie: PHPSESSID=ck; Path=/\r\n"
        b"Content-Length: 0\r\n\r\n",
        CANNED_RESPONSE,
        b"HTTP/1.1 302 Found\r\nLocation: /index.php\r\nContent-Length: 0\r\n\r\n",
    ]
    get = b"GET /%s HTTP/1.1\r\nHost: x\r\nUser-Agent: key/1\r\nCookie: PHPSESSID=ck\r\n\r\n"
    body = b"username=mark&password=maplesyrup"
    try:
        login = (b"POST /Login.php HTTP/1.1\r\nHost: x\r\nUser-Agent: key/1\r\n"
                 b"Content-Length: %d\r\n\r\n" % len(body) + body)
        statuses = [status_of(send_raw(addr, request))
                    for request in (login, get % b"Home.php", get % b"Logout.php", get % b"Home.php")]
        keepalive_upstream.shutdown()
        keepalive_upstream.server_close()  # now refuses connections
        with caplog.at_level(logging.WARNING, logger="phpwarden.proxy"):
            statuses.append(status_of(send_raw(addr, b"GET /About.php HTTP/1.1\r\nHost: x\r\n"
                                                     b"User-Agent: key/1\r\n\r\n")))
    finally:
        proxy.shutdown()
        proxy.server_close()
        enforcer.log.close()
    # the login bound the manager, and the logout cleared the binding
    assert statuses == [302, 200, 302, 403, 502]
    assert keys == ["/Login.php", "/Home.php", "/Logout.php", "/Home.php", "/About.php"]
    assert stray_pages == []
    records = [record.getMessage() for record in caplog.records if record.name == "phpwarden.proxy"]
    assert len(records) == 1 and "502 Bad Gateway for GET_About.php: connect: " in records[0], records


def test_whitespace_only_line_ends_the_head_while_the_client_keeps_its_side_open(framing_rig):
    # a line of whitespace ends the head for the parser but is no CRLF
    # blank line, so the head is refused at once, not read on until timeout
    addr, upstream, enforcer, _ = framing_rig
    with socket.create_connection(addr, timeout=2) as sock:
        sock.sendall(b"GET /b.php HTTP/1.1\r\nHost: x\r\nUser-Agent: ws\r\n \r\n")
        response = read_to_close(sock)
    head = response.split(b"\r\n\r\n", 1)[0].decode()
    assert status_of(response) == 403
    assert "X-Deviation-Reason: unknown_request" in head
    assert upstream.received == []
    assert enforcer.blocked_count == 1


# -- the worker pool -------------------------------------------------------------


class SerialUpstream(CaptureUpstream):
    """CaptureUpstream answering one connection at a time in its serving
    thread, so it starts no thread of its own."""

    process_request = socketserver.TCPServer.process_request


POOL_REQUEST = b"GET /a.php HTTP/1.1\r\nHost: x\r\nUser-Agent: pool/1\r\n\r\n"


@pytest.fixture
def start_pool(tmp_path):
    """Start a proxy with a pool of the given size in front of a
    SerialUpstream, under a model where GET /a.php passes for role 0;
    returns the proxy and the thread serve_forever runs in, once every
    worker has started."""
    upstream = SerialUpstream()
    start_in_thread(upstream)
    model1 = RequestModel(rows=[ModelRow(sno=1, convid=1, reqresid="GET_a.php", session_flag=0, role="0")])
    model2 = NavigationModel(graphs={"0": {"a.php": ["a.php"]}}, entries={"0": ["a.php"]})
    enforcer = Enforcer(model1, model2, {}, DeviationLog(str(tmp_path / "deviations.log")))
    proxies = []

    def start(workers: int):
        proxy = serve_proxy(("127.0.0.1", 0), upstream.server_address, enforcer, workers)
        proxies.append(proxy)
        serving = start_in_thread(proxy)
        deadline = time.monotonic() + 5
        while len(proxy.threads) < workers and time.monotonic() < deadline:
            time.sleep(0.01)
        assert len(proxy.threads) == workers
        return proxy, serving

    yield start
    for proxy in proxies:
        proxy.shutdown()
        proxy.server_close()
    upstream.shutdown()
    upstream.server_close()
    enforcer.log.close()


def test_pool_serves_sequential_requests_without_starting_threads(start_pool, monkeypatch):
    proxy, _ = start_pool(3)
    addr = proxy.server_address
    handlers = []
    finish_request = type(proxy).finish_request

    def recorded(self, request, client_address):
        handlers.append(threading.current_thread())
        finish_request(self, request, client_address)

    monkeypatch.setattr(type(proxy), "finish_request", recorded)
    before = set(threading.enumerate())
    for _ in range(50):
        assert status_of(send_raw(addr, POOL_REQUEST)) == 200
    assert len(handlers) == 50
    assert set(handlers) <= set(proxy.threads)
    assert set(threading.enumerate()) <= before
    assert all(worker.is_alive() for worker in proxy.threads)


def test_client_beyond_the_pool_waits_until_a_worker_frees(start_pool):
    proxy, _ = start_pool(2)
    addr = proxy.server_address
    # two clients that send half a head hold both workers
    slow = [socket.create_connection(addr, timeout=5) for _ in range(2)]
    try:
        for sock in slow:
            sock.sendall(POOL_REQUEST[:20])
        with socket.create_connection(addr, timeout=5) as waiting:
            waiting.sendall(POOL_REQUEST)
            waiting.shutdown(socket.SHUT_WR)
            waiting.settimeout(0.3)
            with pytest.raises(socket.timeout):
                waiting.recv(1)  # queued in the listen backlog, not answered
            slow[0].sendall(POOL_REQUEST[20:])
            assert status_of(read_to_close(slow[0])) == 200
            waiting.settimeout(5)
            assert status_of(read_to_close(waiting)) == 200
        slow[1].sendall(POOL_REQUEST[20:])
        assert status_of(read_to_close(slow[1])) == 200
    finally:
        for sock in slow:
            sock.close()


def test_request_whose_handling_raises_leaves_the_pool_whole(start_pool, monkeypatch):
    proxy, _ = start_pool(2)
    addr = proxy.server_address
    errors = []
    monkeypatch.setattr(proxy, "handle_error", lambda request, client_address: errors.append(client_address))

    def boom(raw_head, client_ip):
        raise RuntimeError("evaluate failed")

    monkeypatch.setattr(proxy.enforcer, "evaluate", boom)
    for _ in range(4):
        assert send_raw(addr, POOL_REQUEST) == b""  # closed without an answer
    monkeypatch.undo()
    assert len(errors) == 4
    assert all(worker.is_alive() for worker in proxy.threads)
    for _ in range(4):
        assert status_of(send_raw(addr, POOL_REQUEST)) == 200


def test_failed_accept_leaves_the_pool_whole(start_pool, monkeypatch):
    proxy, _ = start_pool(2)
    get_request = proxy.get_request
    failures = [OSError(errno.EMFILE, "Too many open files") for _ in range(4)]

    def flaky():
        try:
            error = failures.pop()
        except IndexError:
            return get_request()
        raise error

    monkeypatch.setattr(proxy, "get_request", flaky)
    for _ in range(6):
        assert status_of(send_raw(proxy.server_address, POOL_REQUEST)) == 200
    assert failures == []
    assert all(worker.is_alive() for worker in proxy.threads)


def test_shutdown_leaves_no_worker_and_no_socket(start_pool):
    proxy, serving = start_pool(3)
    assert status_of(send_raw(proxy.server_address, POOL_REQUEST)) == 200
    proxy.shutdown()
    proxy.server_close()
    serving.join(2)
    assert not serving.is_alive()
    assert not any(worker.is_alive() for worker in proxy.threads)
    assert proxy.socket.fileno() == -1


def test_shutdown_cuts_off_a_client_still_sending_its_head(start_pool):
    proxy, serving = start_pool(2)
    with socket.create_connection(proxy.server_address, timeout=5) as slow:
        slow.sendall(POOL_REQUEST[:20])  # half a head, and then nothing
        time.sleep(0.2)  # a worker now holds it
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            started = time.monotonic()
            proxy.shutdown()
            took = time.monotonic() - started
            gc.collect()
        assert took < 2.0, took
        assert slow.recv(1) == b""  # closed unanswered: nothing was verified
    serving.join(2)
    assert not any(worker.is_alive() for worker in proxy.threads)
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []
    assert proxy.enforcer.blocked_count == 0


def test_each_connection_is_shut_once(start_pool, monkeypatch):
    # the handler shuts the write side of a connection it answers, so that
    # the client sees the end at once; shutdown_request shuts only the rest
    proxy, _ = start_pool(1)
    addr = proxy.server_address
    shut = []
    shutdown = socket.socket.shutdown

    def counted(sock, how):
        try:
            accepted = how == socket.SHUT_WR and sock.getsockname()[1] == addr[1]
        except OSError:
            accepted = False
        if accepted:
            shut.append(sock)  # kept alive, so no two sockets share an id
        shutdown(sock, how)

    monkeypatch.setattr(socket.socket, "shutdown", counted)
    assert status_of(send_raw(addr, POOL_REQUEST)) == 200
    assert status_of(send_raw(addr, POOL_REQUEST.replace(b"/a.php", b"/b.php"))) == 403

    def unreachable():
        raise ConnectionRefusedError("upstream down")

    monkeypatch.setattr(proxy, "connect_upstream", unreachable)
    assert status_of(send_raw(addr, POOL_REQUEST)) == 502
    proxy.shutdown()  # joins the worker, so every connection has been closed
    assert sorted(Counter(map(id, shut)).values()) == [1, 1, 1]


def test_pool_under_more_clients_than_workers_loses_no_verdict(start_pool):
    proxy, _ = start_pool(4)
    addr = proxy.server_address
    enforcer = proxy.enforcer
    statuses: dict[str, list[int]] = {}

    def walk(name: str) -> None:
        passing = POOL_REQUEST.replace(b"pool/1", name.encode())
        blocked = passing.replace(b"/a.php", b"/b.php")
        statuses[name] = [status_of(send_raw(addr, request)) for _ in range(5) for request in (passing, blocked)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        clients = [threading.Thread(target=walk, args=(f"stress-{i}",)) for i in range(8)]
        for client in clients:
            client.start()
        for client in clients:
            client.join(30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(client.is_alive() for client in clients)
    assert all(got == [200, 403] * 5 for got in statuses.values()) and len(statuses) == 8
    assert enforcer.blocked_count == 40
    assert len(read_records(enforcer.log.path)) == 40


def test_a_dripped_head_is_cut_off_at_one_deadline_for_the_whole_head(start_pool, monkeypatch):
    # _IO_TIMEOUT bounds the whole head, not each read: a client that sends
    # a byte every 0.1 s is cut off, and frees its worker, after 0.5 s
    monkeypatch.setattr("phpwarden.proxy._IO_TIMEOUT", 0.5)
    proxy, _ = start_pool(2)
    addr = proxy.server_address
    cut_after = []

    def drip():
        with socket.create_connection(addr, timeout=5) as sock:
            sock.settimeout(0.1)
            started = time.monotonic()
            for byte in POOL_REQUEST[:-2]:  # 51 bytes, never a blank line: 5 s
                try:
                    sock.sendall(bytes([byte]))
                    if sock.recv(1) == b"":
                        break
                except socket.timeout:
                    continue
                except OSError:
                    break
            cut_after.append(time.monotonic() - started)

    drippers = [threading.Thread(target=drip) for _ in range(2)]
    for thread in drippers:
        thread.start()
    time.sleep(0.2)  # both workers now hold a dripping client
    started = time.monotonic()
    assert status_of(send_raw(addr, POOL_REQUEST)) == 200
    served_after = time.monotonic() - started
    for thread in drippers:
        thread.join()
    assert served_after < 2.0, served_after
    assert len(cut_after) == 2 and all(0.4 < t < 2.0 for t in cut_after), cut_after


_PROXY_TRACE_SCRIPT = """
import json, os, socket, socketserver, sys, tempfile, threading
sys.path[:0] = sys.argv[1:3]
import spans
from phpwarden.enforcer import DeviationLog, Enforcer
from phpwarden.models import ModelRow, NavigationModel, RequestModel
from phpwarden.proxy import serve_proxy


class Upstream(socketserver.BaseRequestHandler):
    def handle(self):
        data = b""
        while b"\\r\\n\\r\\n" not in data:
            data += self.request.recv(65536)
        self.request.sendall(b"HTTP/1.1 200 OK\\r\\nContent-Length: 2\\r\\n\\r\\nok")


def get(addr, page):
    with socket.create_connection(addr, timeout=5) as sock:
        sock.sendall(f"GET /{page} HTTP/1.1\\r\\nUser-Agent: trace-check\\r\\n\\r\\n".encode())
        sock.shutdown(socket.SHUT_WR)
        response = b""
        while chunk := sock.recv(65536):
            response += chunk
    return int(response.split()[1])


recorder = spans.Recorder(None)
spans.instrument(recorder)
upstream = socketserver.TCPServer(("127.0.0.1", 0), Upstream)
threading.Thread(target=upstream.serve_forever, daemon=True).start()
model1 = RequestModel(rows=[ModelRow(1, 1, "GET_About.php", 0, "0")])
model2 = NavigationModel(graphs={}, entries={"0": ["About.php"]})
with tempfile.TemporaryDirectory() as tmp:
    log = DeviationLog(os.path.join(tmp, "deviations.log"))
    proxy = serve_proxy(("127.0.0.1", 0), upstream.server_address, Enforcer(model1, model2, {}, log))
    threading.Thread(target=proxy.serve_forever, daemon=True).start()
    statuses = [get(proxy.server_address, page) for page in ("About.php", "Secret.php")]
    proxy.shutdown()  # joins the workers, so every span is recorded
    proxy.server_close()
    upstream.shutdown()
    upstream.server_close()
    log.close()
print(json.dumps({"statuses": statuses, "spans": [s[1] for s in recorder.spans]}))
"""


def test_trace_hooks_reach_the_proxy_and_the_deviation_log(repo_root):
    # perfbench/spans.py wraps EnforcementProxy.finish_request and
    # DeviationLog.record as class attributes; a refactor that serves or
    # logs another way leaves the traced benchmark without these spans
    import json
    import subprocess

    proc = subprocess.run(
        [sys.executable, "-c", _PROXY_TRACE_SCRIPT,
         str(repo_root / "perfbench"), str(repo_root / "src")],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["statuses"] == [200, 403]
    assert result["spans"].count("proxy.finish_request") == 2
    assert result["spans"].count("enforcer.deviation_log_record") == 1
    assert result["spans"].count("enforcer.evaluate") == 2
