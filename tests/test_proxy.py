import socket
import socketserver
import threading

import pytest

from phpwarden.enforcer import DeviationLog, Enforcer, load_bindings
from phpwarden.models import ModelRow, NavigationModel, RequestModel
from phpwarden.proxy import serve_proxy, start_in_thread

from conftest import BINDINGS_TEXT

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
    assert len(DeviationLog.read_records(log_path)) == 1


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
    assert len(DeviationLog.read_records(log_path)) == 1


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

        assert not os.path.exists(log_path) or DeviationLog.read_records(log_path) == []
    finally:
        proxy.shutdown()
        proxy.server_close()
        enforcer.log.close()


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
