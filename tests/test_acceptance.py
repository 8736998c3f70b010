"""One test per acceptance criterion.

Each test prints a single pass/fail line straight to the terminal (bypassing
capture) so the whole gate can be read off any pytest run.  Timing bounds are
asserted where a criterion carries one.
"""

import contextlib
import http.client
import itertools
import statistics
import time
import urllib.parse
from pathlib import Path
from types import SimpleNamespace

import pytest

from phpwarden.checklist import default_checklist
from phpwarden.config_audit import audit, default_policy, parse_ini
from phpwarden.crawler import crawl
from phpwarden.enforcer import DeviationLog, Enforcer, load_bindings, verify_request
from phpwarden.models import build_model, load_model, persist_model
from phpwarden.profile_store import ProfileStore
from phpwarden.proxy import serve_proxy
from phpwarden.report import build_report, parse_structured, render, render_structured
from phpwarden.scanner import scan_project
from phpwarden.scenarios import replay_training

from conftest import start_in_thread
from test_enforcer import naive_verdict, toy_models

CREDENTIALS = {"manager": ("mark", "maplesyrup"), "employer": ("emma", "evergreen")}
BINDINGS_TEXT = "mark,manager\nemma,employer\n"

GOLDEN_TRIPLES = {
    ("GET_About.php", 0, "0"),
    ("GET_Help.php", 0, "0"),
    ("GET_Login.php", 0, "0"),
    ("POST_Login.php", 0, "0"),
    ("GET_Services.php", 0, "0"),
    ("GET_Products.php", 0, "0"),
    ("GET_Home.php", 1, "manager"),
    ("GET_Assign_works.php", 1, "manager"),
    ("GET_User_mgmt.php", 1, "manager"),
    ("GET_Update_users.php", 1, "manager"),
    ("GET_Update_roles.php", 1, "manager"),
    ("GET_View.php", 1, "manager"),
    ("GET_Viewusers.php", 1, "manager"),
    ("GET_Viewroles.php", 1, "manager"),
    ("GET_Home.php", 1, "employer"),
    ("GET_Work_report.php", 1, "employer"),
    ("GET_View.php", 1, "employer"),
    ("GET_Viewusers.php", 1, "employer"),
    ("GET_Viewroles.php", 1, "employer"),
}

GOLDEN_MANAGER_GRAPH = {
    "Home.php": {"Assign_works.php", "User_mgmt.php", "View.php"},
    "User_mgmt.php": {"Update_users.php", "Update_roles.php"},
    "View.php": {"Viewusers.php", "Viewroles.php"},
}

GOLDEN_EMPLOYER_GRAPH = {
    "Home.php": {"Work_report.php", "View.php"},
    "View.php": {"Viewusers.php", "Viewroles.php"},
}

EXPECTED_CATEGORY_SETS = {
    "portal": {"SqlInjection", "FileManipulation", "CrossSiteScripting"},
    "scarf": {"FileManipulation", "SqlInjection", "CrossSiteScripting"},
    "cet": {"SqlInjection", "CrossSiteScripting"},
    "bookstore": {"SqlInjection", "CrossSiteScripting"},
    "employee_dir": {"SqlInjection", "CrossSiteScripting", "FileManipulation"},
}


@pytest.fixture
def criterion(capfd):
    """`with criterion(n) as c:` prints one `criterion n: PASS/FAIL - note`
    line past pytest's capture, whatever happens inside the block."""

    @contextlib.contextmanager
    def enter(number: int):
        state = SimpleNamespace(note="")
        try:
            yield state
        except BaseException as exc:
            note = str(exc).splitlines()[0] if str(exc) else type(exc).__name__
            with capfd.disabled():
                print(f"criterion {number}: FAIL - {note}", flush=True)
            raise
        tail = f" - {state.note}" if state.note else ""
        with capfd.disabled():
            print(f"criterion {number}: PASS{tail}", flush=True)

    return enter


def _request(addr, method, path, user_agent, cookie=None, form=None):
    """One HTTP exchange.  Returns (status, deviation reason header or None,
    Set-Cookie header or None, body bytes)."""
    conn = http.client.HTTPConnection(addr[0], addr[1], timeout=10)
    headers = {"User-Agent": user_agent}
    if cookie:
        headers["Cookie"] = f"PHPSESSID={cookie}"
    body = None
    if form is not None:
        body = urllib.parse.urlencode(form)
        headers["Content-Type"] = "application/x-www-form-urlencoded"
    try:
        conn.request(method, path, body=body, headers=headers)
        resp = conn.getresponse()
        data = resp.read()
        return resp.status, resp.getheader("X-Deviation-Reason"), resp.getheader("Set-Cookie"), data
    finally:
        conn.close()


def _login(addr, user_agent, username, password):
    status, reason, set_cookie, _ = _request(
        addr, "POST", "/Login.php", user_agent,
        form={"username": username, "password": password},
    )
    assert reason is None, f"login blocked: {reason}"
    assert set_cookie, f"no session cookie (status {status})"
    return set_cookie.split(";", 1)[0].split("=", 1)[1]


@pytest.fixture(scope="module")
def gate(trained, tmp_path_factory):
    """One enforcement proxy shared by the attack, replay and timing
    criteria, so the block-count/log-record equality spans all of them."""
    log_path = str(tmp_path_factory.mktemp("acceptance") / "deviations.log")
    enforcer = Enforcer(
        trained.model1, trained.model2,
        load_bindings(BINDINGS_TEXT), DeviationLog(log_path),
    )
    proxy = serve_proxy(("127.0.0.1", 0), trained.upstream, enforcer)
    start_in_thread(proxy)
    yield SimpleNamespace(
        addr=("127.0.0.1", proxy.server_address[1]),
        enforcer=enforcer,
        log_path=log_path,
    )
    proxy.shutdown()
    proxy.server_close()
    enforcer.log.close()


def test_criterion_1_admin_menu_report(criterion, repo_root):
    with criterion(1) as c:
        started = time.perf_counter()
        root = repo_root / "fixtures" / "empldir_php4t"
        result = scan_project(str(root), default_checklist())
        rendered = render(build_report(result, [], "empldir_php4t"))
        elapsed = time.perf_counter() - started

        assert [(f.line, f.category) for f in result.findings] == [
            (114, "CrossSiteScripting"),
            (131, "SqlInjection"),
            (153, "SqlInjection"),
        ]
        expected_fields = [
            (1, "Cross-Site Scripting", 114,
             'printf("Debug: query = %s<br>\\n", $Query_String); // db_mysql.inc'),
            (2, "SQL Injection", 131, "$db_fill->query ($sql_query);"),
            (3, "SQL Injection", 153,
             '$db_look->query ("SELECT " . $field_name . " FROM " . $table_name'
             ' . " WHERE " . $where_condition);'),
        ]
        for number, display, line, text in expected_fields:
            assert f"VulnerabilityNumber : {number}" in rendered
            assert f"Vulnerability FileName : {root / 'AdminMenu.php'}" in rendered
            assert f"VulnerabilityName : {display}" in rendered
            assert f"Vulnerable Line : {line}: {text}" in rendered
        assert elapsed < 1.0, f"took {elapsed:.2f}s"
        c.note = f"3 findings at lines 114/131/153, report fields exact ({elapsed:.2f}s)"


def test_criterion_2_category_sets(criterion, repo_root):
    with criterion(2) as c:
        started = time.perf_counter()
        for app, expected in EXPECTED_CATEGORY_SETS.items():
            result = scan_project(str(repo_root / "fixtures" / app), default_checklist())
            got = {f.category for f in result.findings}
            assert got == expected, f"{app}: {sorted(got)} != {sorted(expected)}"
        elapsed = time.perf_counter() - started
        assert elapsed < 5.0, f"took {elapsed:.2f}s"
        c.note = f"all five fixture apps match their category sets ({elapsed:.2f}s)"


def test_criterion_3_trained_models(criterion, trained, tmp_path):
    with criterion(3) as c:
        started = time.perf_counter()
        store = ProfileStore(tmp_path / "store")
        crawl(trained.base, "0", None, store)
        for role, creds in CREDENTIALS.items():
            crawl(trained.base, role, creds, store)
        model1, model2 = build_model(store)
        elapsed = time.perf_counter() - started

        assert set(model1.triples()) == GOLDEN_TRIPLES
        assert len(set(model1.triples())) == 19
        assert {k: set(v) for k, v in model2.graphs["manager"].items()} == GOLDEN_MANAGER_GRAPH
        assert {k: set(v) for k, v in model2.graphs["employer"].items()} == GOLDEN_EMPLOYER_GRAPH
        assert set(model2.entries["manager"]) == {"Home.php"}
        assert set(model2.entries["employer"]) == {"Home.php"}
        assert elapsed < 10.0, f"took {elapsed:.2f}s"
        c.note = f"19 distinct rows and both navigation graphs match ({elapsed:.2f}s)"


def test_criterion_4_attack_triad(criterion, gate):
    with criterion(4) as c:
        started = time.perf_counter()

        status, reason, _, _ = _request(gate.addr, "GET", "/Home.php", "acceptance-anon")
        assert (status, reason) == (403, "session_flag_mismatch")

        cookie = _login(gate.addr, "acceptance-employer", "emma", "evergreen")
        status, reason, _, _ = _request(
            gate.addr, "GET", "/User_mgmt.php", "acceptance-employer", cookie=cookie)
        assert status == 403
        assert reason in ("role_mismatch", "unknown_page_for_role"), reason

        cookie = _login(gate.addr, "acceptance-manager", "mark", "maplesyrup")
        status, reason, _, _ = _request(
            gate.addr, "GET", "/Home.php", "acceptance-manager", cookie=cookie)
        assert (status, reason) == (200, None)
        status, reason, _, _ = _request(
            gate.addr, "GET", "/Viewusers.php", "acceptance-manager", cookie=cookie)
        assert (status, reason) == (403, "sequence_violation")

        elapsed = time.perf_counter() - started
        assert elapsed < 5.0, f"took {elapsed:.2f}s"
        c.note = f"session, role and sequence attacks blocked with exact reasons ({elapsed:.2f}s)"


def test_criterion_5_hijack_and_log_parity(criterion, gate):
    with criterion(5) as c:
        cookie = _login(gate.addr, "acceptance-victim", "mark", "maplesyrup")
        status, reason, _, _ = _request(
            gate.addr, "GET", "/Home.php", "acceptance-victim", cookie=cookie)
        assert (status, reason) == (200, None)

        status, reason, _, _ = _request(
            gate.addr, "GET", "/View.php", "acceptance-thief", cookie=cookie)
        assert (status, reason) == (403, "identity_mismatch")

        records = [line for line in Path(gate.log_path).read_text().splitlines() if line]
        assert gate.enforcer.blocked_count == len(records)
        c.note = (f"hijacked cookie blocked; {gate.enforcer.blocked_count} blocks "
                  f"== {len(records)} log records")


def test_criterion_6_oracle_equivalence(criterion):
    with criterion(6) as c:
        started = time.perf_counter()
        model1, nav = toy_models()
        triples = [(r.reqresid, r.session_flag, r.role) for r in model1.rows]
        pages = [
            "Home.php", "View.php", "Viewusers.php", "Work_report.php",
            "Open.php", "style.css", "Ghost.php",
        ]
        checked = 0
        for page, flag, role, last_page in itertools.product(
                pages, (0, 1), ["manager", "employer", "0"], [None] + pages):
            expected = naive_verdict(page, flag, role, last_page, triples, nav.entries, nav.graphs)
            got = verify_request("GET_" + page, page, flag, role, last_page, model1, nav)
            assert (got.status, got.reason) == expected, (page, flag, role, last_page)
            checked += 1
        elapsed = time.perf_counter() - started
        assert checked == 7 * 2 * 3 * 8
        assert elapsed < 10.0, f"took {elapsed:.2f}s"
        c.note = f"verifier agrees with the brute-force oracle on all {checked} tuples ({elapsed:.2f}s)"


def test_criterion_7_training_replay(criterion, gate, trained):
    with criterion(7) as c:
        started = time.perf_counter()
        blocks, total = replay_training(trained.store, gate.addr, CREDENTIALS)
        elapsed = time.perf_counter() - started
        assert blocks == 0, f"{blocks} of {total} replayed requests blocked"
        assert total == 49
        c.note = f"replayed {total} training requests with zero blocks ({elapsed:.2f}s)"


def test_criterion_8_proxy_overhead(criterion, gate, trained):
    with criterion(8) as c:
        def timed_get(addr, tag, count):
            samples = []
            for i in range(count):
                t0 = time.perf_counter()
                status, reason, _, _ = _request(addr, "GET", "/About.php", f"bench-{tag}-{i}")
                samples.append(time.perf_counter() - t0)
                assert (status, reason) == (200, None)
            return samples

        timed_get(trained.upstream, "warm-direct", 25)
        timed_get(gate.addr, "warm-proxy", 25)
        p50_direct = statistics.median(timed_get(trained.upstream, "direct", 1000))
        p50_proxy = statistics.median(timed_get(gate.addr, "proxy", 1000))
        ratio = p50_proxy / p50_direct
        assert p50_proxy < 10 * p50_direct, (
            f"p50 {p50_proxy * 1000:.2f}ms proxied vs {p50_direct * 1000:.2f}ms direct")
        c.note = (f"p50 {p50_direct * 1000:.2f}ms direct, {p50_proxy * 1000:.2f}ms proxied, "
                  f"{ratio:.1f}x over 1000 requests")


def test_criterion_9_round_trips(criterion, trained, tmp_path, repo_root):
    with criterion(9) as c:
        first = tmp_path / "first"
        persist_model(trained.model1, trained.model2, first)
        model1, model2 = load_model(first)
        assert model1.rows == trained.model1.rows
        assert model2.graphs == trained.model2.graphs
        assert model2.entries == trained.model2.entries
        second = tmp_path / "second"
        persist_model(model1, model2, second)
        first_files = sorted(p.name for p in first.iterdir())
        assert first_files == sorted(p.name for p in second.iterdir())
        for name in first_files:
            assert (first / name).read_bytes() == (second / name).read_bytes()

        result = scan_project(str(repo_root / "fixtures" / "bookstore"), default_checklist())
        ini_text = (repo_root / "fixtures" / "php_ini" / "vulnerable.ini").read_text()
        misconfigs = audit(parse_ini(ini_text), default_policy())
        report = build_report(result, misconfigs, "bookstore")
        data = render_structured(report)
        reparsed = parse_structured(data)
        assert render(reparsed) == render(report)
        assert render_structured(reparsed) == data

        patched = ini_text + "".join(f"{m.name} = {m.recommended}\n" for m in misconfigs)
        assert audit(parse_ini(patched), default_policy()) == []
        c.note = "model persist/load, report parse/render and config fixpoint all hold"
