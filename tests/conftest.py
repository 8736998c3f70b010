import socket
import socketserver
import sys
import threading
from dataclasses import dataclass
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))  # scanner_oracle import

from phpwarden.crawler import crawl
from phpwarden.demoapp import serve_app
from phpwarden.enforcer import DeviationLog, Enforcer, load_bindings
from phpwarden.models import NavigationModel, RequestModel, build_model
from phpwarden.profile_store import ProfileStore
from phpwarden.proxy import serve_proxy

REPO = Path(__file__).resolve().parent.parent

CREDENTIALS = {"manager": ("mark", "maplesyrup"), "employer": ("emma", "evergreen")}
BINDINGS_TEXT = "mark,manager\nemma,employer\n"

# a Content-Length behind a bare CR, which an upstream that takes the CR as
# a line break reads first: the body of the real one is a second request
BARE_CR_REQUEST = (
    b"POST /Login.php HTTP/1.1\r\nHost: x\r\nUser-Agent: u\r\nX-Note: a\rContent-Length: 0\r\n"
    b"Content-Length: 37\r\n\r\nGET /Secret.php HTTP/1.1\r\nHost: x\r\n\r\n"
)


def read_records(path) -> list[tuple[str, ...]]:
    """The records of a deviation log: the 6 tab-separated fields of each
    non-blank line."""
    records = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                records.append(tuple(line.rstrip("\n").split("\t")))
    return records


def start_in_thread(server: socketserver.BaseServer) -> threading.Thread:
    """Serve from a daemon thread.  The short poll interval lets
    `server.shutdown()` return within 0.05 s, not the default 0.5 s."""
    thread = threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05},
                              daemon=True)
    thread.start()
    return thread


@pytest.fixture(scope="session")
def repo_root() -> Path:
    return REPO


@dataclass
class TrainedStack:
    app: object
    base: str
    upstream: tuple
    store: ProfileStore
    model1: RequestModel
    model2: NavigationModel


@pytest.fixture(scope="session")
def trained(tmp_path_factory) -> TrainedStack:
    """One demo app instance plus a full three-role training run, shared by
    every test that only reads the models."""
    app = serve_app(("127.0.0.1", 0), seed=99)
    start_in_thread(app)
    port = app.server_address[1]
    base = f"http://127.0.0.1:{port}"
    store = ProfileStore(tmp_path_factory.mktemp("store"))
    crawl(base, "0", None, store)
    for role, creds in CREDENTIALS.items():
        crawl(base, role, creds, store)
    model1, model2 = build_model(store)
    stack = TrainedStack(app, base, ("127.0.0.1", port), store, model1, model2)
    yield stack
    app.shutdown()
    app.server_close()


@dataclass
class ProxyStack:
    addr: tuple
    enforcer: Enforcer
    log_path: str


@pytest.fixture
def proxy_stack(trained, tmp_path) -> ProxyStack:
    """Fresh enforcer + proxy per test: clean client table, clean log."""
    log_path = str(tmp_path / "deviations.log")
    enforcer = Enforcer(
        trained.model1, trained.model2,
        load_bindings(BINDINGS_TEXT), DeviationLog(log_path),
    )
    proxy = serve_proxy(("127.0.0.1", 0), trained.upstream, enforcer)
    start_in_thread(proxy)
    yield ProxyStack(("127.0.0.1", proxy.server_address[1]), enforcer, log_path)
    proxy.shutdown()
    proxy.server_close()
    enforcer.log.close()


class KeepAliveUpstream(socketserver.ThreadingTCPServer):
    """HTTP/1.1 origin that keeps every connection open and never closes
    first.  Each request it reads (head, then a Content-Length body) is
    recorded in `received` and answered with the next entry of `responses`:
    raw bytes, or a list of byte parts and `threading.Event`s, where the
    upstream waits for each event before sending the parts after it."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self):
        self.responses: list = []
        self.received: list[bytes] = []
        self.connections: list[socket.socket] = []
        self.lock = threading.Lock()
        super().__init__(("127.0.0.1", 0), _KeepAliveHandler)

    def close_connections(self) -> None:
        with self.lock:
            for conn in self.connections:
                try:
                    conn.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass


class _KeepAliveHandler(socketserver.BaseRequestHandler):
    server: KeepAliveUpstream

    def _read(self, buf: bytes) -> bytes:
        chunk = self.request.recv(65536)
        if not chunk:
            raise EOFError
        return buf + chunk

    def handle(self):
        server = self.server
        with server.lock:
            server.connections.append(self.request)
        buf = b""
        try:
            while True:
                while b"\r\n\r\n" not in buf:
                    buf = self._read(buf)
                head, _, buf = buf.partition(b"\r\n\r\n")
                length = 0
                for line in head.split(b"\r\n")[1:]:
                    name, _, value = line.partition(b":")
                    if name.strip().lower() == b"content-length":
                        length = int(value)
                while len(buf) < length:
                    buf = self._read(buf)
                with server.lock:
                    server.received.append(head + b"\r\n\r\n" + buf[:length])
                    response = server.responses.pop(0)
                buf = buf[length:]
                for part in response if isinstance(response, list) else [response]:
                    if isinstance(part, threading.Event):
                        part.wait(10)
                    else:
                        self.request.sendall(part)
        except (EOFError, OSError):
            return


@pytest.fixture
def keepalive_upstream() -> KeepAliveUpstream:
    upstream = KeepAliveUpstream()
    start_in_thread(upstream)
    yield upstream
    upstream.shutdown()
    upstream.close_connections()
    upstream.server_close()
