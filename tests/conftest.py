import sys
from dataclasses import dataclass
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))  # scanner_oracle import

from phpwarden.crawler import crawl
from phpwarden.demoapp import serve_app, start_in_thread
from phpwarden.enforcer import DeviationLog, Enforcer, load_bindings
from phpwarden.models import NavigationModel, RequestModel, build_model
from phpwarden.profile_store import ProfileStore
from phpwarden.proxy import serve_proxy

REPO = Path(__file__).resolve().parent.parent

CREDENTIALS = {"manager": ("mark", "maplesyrup"), "employer": ("emma", "evergreen")}
BINDINGS_TEXT = "mark,manager\nemma,employer\n"


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
