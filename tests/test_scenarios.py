import re

import pytest

from phpwarden.enforcer import Enforcer, EnforcerConfig, load_bindings
from phpwarden.models import build_model
from phpwarden.profile_store import ProfileStore
from phpwarden.proxy import serve_proxy
from phpwarden.scenarios import (
    BUILTIN_SCENARIOS,
    ScenarioError,
    _tokenize,
    replay_training,
    run_scenario,
)

from conftest import BINDINGS_TEXT, CREDENTIALS, start_in_thread


# -- tokenizer ------------------------------------------------------------------


def test_tokenize_plain_words():
    assert _tokenize("request mgr GET /Home.php") == ["request", "mgr", "GET", "/Home.php"]


def test_tokenize_double_quotes_group():
    assert _tokenize('client eve "Mozilla/5.0 (X11) attack"') == [
        "client", "eve", "Mozilla/5.0 (X11) attack",
    ]


def test_tokenize_apostrophe_is_ordinary():
    # the don't_block literal must survive tokenization
    assert _tokenize("request c GET /x expect=don't_block") == [
        "request", "c", "GET", "/x", "expect=don't_block",
    ]


def test_tokenize_unclosed_quote_raises():
    with pytest.raises(ValueError, match="unclosed"):
        _tokenize('client eve "no closing')


def test_tokenize_collapses_runs_of_spaces():
    assert _tokenize("  a   b\tc  ") == ["a", "b", "c"]


# -- script validation ------------------------------------------------------------


def test_unknown_directive_reports_line(proxy_stack):
    with pytest.raises(ScenarioError, match="line 2"):
        run_scenario("client a agent/1\nfrobnicate a\n", proxy_stack.addr)


def test_request_for_undefined_client_is_error(proxy_stack):
    with pytest.raises(ScenarioError, match="line 1"):
        run_scenario("request ghost GET /x\n", proxy_stack.addr)


def test_bad_option_is_error(proxy_stack):
    script = "client a agent/1\nrequest a GET /x expect=maybe\n"
    with pytest.raises(ScenarioError, match="bad option"):
        run_scenario(script, proxy_stack.addr)


def test_unclosed_quote_in_script_names_line(proxy_stack):
    with pytest.raises(ScenarioError, match="line 1"):
        run_scenario('client a "broken\n', proxy_stack.addr)


def test_steal_requires_both_clients(proxy_stack):
    with pytest.raises(ScenarioError, match="line 2"):
        run_scenario("client a agent/1\nsteal a ghost\n", proxy_stack.addr)


def test_empty_scenario_passes(proxy_stack):
    result = run_scenario("# nothing but comments\n\n", proxy_stack.addr, name="empty")
    assert result.passed
    assert result.transcript == ["PASS empty"]


# -- execution against the live stack ----------------------------------------------


@pytest.mark.parametrize("name", sorted(BUILTIN_SCENARIOS))
def test_builtin_scenarios_pass(proxy_stack, name):
    result = run_scenario(BUILTIN_SCENARIOS[name], proxy_stack.addr, name=name)
    assert result.passed, "\n".join(result.transcript)
    assert result.transcript[-1] == f"PASS {name}"


def test_expectation_mismatch_fails_but_keeps_going(proxy_stack):
    script = (
        "client c agent/expect-mismatch\n"
        "request c GET /About.php expect=block\n"
        "request c GET /Nowhere.php expect=block reason=unknown_request\n"
    )
    result = run_scenario(script, proxy_stack.addr, name="mismatch")
    assert not result.passed
    assert result.transcript[-1] == "FAIL mismatch"
    # the later, correct step still executed and is in the transcript
    assert any("Nowhere.php" in line and "unknown_request" in line for line in result.transcript)


def test_wrong_reason_fails(proxy_stack):
    script = (
        "client c agent/wrong-reason\n"
        "request c GET /Home.php expect=block reason=identity_mismatch\n"
    )
    result = run_scenario(script, proxy_stack.addr, name="wrong-reason")
    assert not result.passed
    assert any("expected reason identity_mismatch" in line for line in result.transcript)


def test_login_failure_marks_scenario_failed(proxy_stack):
    script = (
        "client c agent/bad-login\n"
        "login c mark wrong-password\n"
    )
    result = run_scenario(script, proxy_stack.addr, name="bad-login")
    assert not result.passed
    assert any("no session cookie" in line for line in result.transcript)


def test_transcript_records_each_step(proxy_stack):
    result = run_scenario(
        BUILTIN_SCENARIOS["happy-manager"], proxy_stack.addr, name="happy-manager"
    )
    text = "\n".join(result.transcript)
    assert "logged in as mark" in text
    assert "GET /Home.php -> don't_block" in text
    assert "GET /Viewusers.php -> don't_block" in text


def test_scenarios_are_deterministic(proxy_stack):
    # same script, same fresh identity: verdicts and transcript text repeat
    first = run_scenario(BUILTIN_SCENARIOS["auth-bypass"], proxy_stack.addr, name="a")
    second = run_scenario(BUILTIN_SCENARIOS["auth-bypass"], proxy_stack.addr, name="a")
    assert first.transcript == second.transcript


def test_logged_out_client_is_judged_without_its_session(proxy_stack):
    script = (
        "client c agent/logout\n"
        "login c mark maplesyrup\n"
        "logout c\n"
        "request c GET /Home.php expect=block reason=session_flag_mismatch\n"
    )
    result = run_scenario(script, proxy_stack.addr, name="logout")
    assert result.passed, "\n".join(result.transcript)
    assert "c logged out" in result.transcript
    assert "c GET /Home.php -> block (session_flag_mismatch)" in result.transcript


def test_replay_training_is_block_free(trained, proxy_stack):
    blocks, total = replay_training(trained.store, proxy_stack.addr, CREDENTIALS)
    assert blocks == 0
    # 36 recorded exchanges + one login preamble per authenticated trail
    authenticated_trails = sum(1 for t in trained.store.trails if t.role != "0")
    recorded = len(trained.store.recorded_ids())
    assert total == recorded + authenticated_trails
    assert (recorded, authenticated_trails) == (36, 13)
    # replay produced no deviation records either
    assert proxy_stack.enforcer.blocked_count == 0


def test_replay_training_speaks_the_store_cookie_name(tmp_path, keepalive_upstream):
    # a hand-made store of an app whose session cookie is MYSESS: the login
    # form probe, then a manager trail that presents the session cookie
    store = ProfileStore(tmp_path / "store", "MYSESS")
    store.record_exchange("POST /Login.php HTTP/1.1\r\nHost: app\r\nUser-Agent: crawler\r\n"
                          "Content-Length: 19\r\n\r\n", "0")
    for page in ("Home.php", "View.php"):
        store.record_exchange(f"GET /{page} HTTP/1.1\r\nHost: app\r\nUser-Agent: crawler\r\n"
                              "Cookie: MYSESS=trained\r\n\r\n", "manager")
    model1, model2 = build_model(store)
    enforcer = Enforcer(model1, model2, load_bindings(BINDINGS_TEXT),
                        config=EnforcerConfig(session_cookie_name="MYSESS"))
    page = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok"
    keepalive_upstream.responses += [
        page,  # the probe's empty form fails
        b"HTTP/1.1 302 Found\r\nLocation: Home.php\r\nSet-Cookie: MYSESS=fresh; path=/\r\n"
        b"Content-Length: 0\r\n\r\n",  # the manager's login
        page, page,
    ]
    proxy = serve_proxy(("127.0.0.1", 0), keepalive_upstream.server_address, enforcer)
    start_in_thread(proxy)
    try:
        blocks, total = replay_training(store, ("127.0.0.1", proxy.server_address[1]), CREDENTIALS)
    finally:
        proxy.shutdown()
        proxy.server_close()
    assert (blocks, total) == (0, 4)
    assert b"Cookie: MYSESS=fresh" in keepalive_upstream.received[-1]


def test_request_answered_with_a_malformed_response_fails(keepalive_upstream):
    # two Content-Length fields: the proxy answers 502 for this response,
    # so a client that reads it as the proxy does cannot take it as a page
    keepalive_upstream.responses.append(
        b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\nok")
    result = run_scenario("client c agent/1\nrequest c GET /a.php expect=don't_block\n",
                          keepalive_upstream.server_address)
    assert not result.passed
    assert result.transcript[1].startswith("FAIL line 2: ")


# a response the proxy answers 502 for (two Content-Length fields), and the
# answers of a gate that forwards a request and of one that blocks it
MALFORMED_RESPONSE = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\nok"
PAGE_RESPONSE = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok"
BLOCK_RESPONSE = b"HTTP/1.1 403 Forbidden\r\nX-Deviation-Reason: unknown_request\r\nContent-Length: 0\r\n\r\n"


@pytest.mark.parametrize("script, usage", [
    ("client a\n", "line 1: client <name> <user-agent>"),
    ("login ghost mark maplesyrup\n", "line 1: login <client> <username> <password>"),
    ("client a agent/1\nlogin a mark\n", "line 2: login <client> <username> <password>"),
    ("client a agent/1\nlogout a a\n", "line 2: logout <client>"),
    ("logout ghost\n", "line 1: logout <client>"),
], ids=["client-one-word", "login-undefined", "login-no-password", "logout-two-words", "logout-undefined"])
def test_a_misused_directive_is_refused_with_its_usage(script, usage):
    # refused before anything is sent, so no gate need listen at the address
    with pytest.raises(ScenarioError, match=re.escape(usage)):
        run_scenario(script, ("127.0.0.1", 1))


def test_a_line_of_no_word_is_an_unknown_directive():
    with pytest.raises(ScenarioError, match="line 1: unknown directive ''"):
        run_scenario('""\n', ("127.0.0.1", 1))


@pytest.mark.parametrize("step", ["login c mark maplesyrup", "logout c"])
def test_a_step_with_no_usable_response_fails_and_the_script_goes_on(keepalive_upstream, step):
    keepalive_upstream.responses += [MALFORMED_RESPONSE, PAGE_RESPONSE]
    script = f"client c agent/1\n{step}\nrequest c GET /a.php\n"
    result = run_scenario(script, keepalive_upstream.server_address, name="s")
    assert not result.passed
    assert result.transcript[1].startswith("FAIL line 2: no usable response: ")
    assert result.transcript[2:] == ["c GET /a.php -> don't_block [200]", "FAIL s"]


def test_a_login_the_gate_blocks_fails(proxy_stack):
    # the thief logs in over the victim's session cookie from its own identity
    script = (
        "client mgr agent/victim\n"
        "client thief agent/thief\n"
        "login mgr mark maplesyrup\n"
        "steal mgr thief\n"
        "login thief mark maplesyrup\n"
    )
    result = run_scenario(script, proxy_stack.addr, name="blocked-login")
    assert not result.passed
    assert "FAIL line 5: login blocked (identity_mismatch)" in result.transcript


def test_replay_training_counts_a_blocked_login_and_a_blocked_request(tmp_path, keepalive_upstream):
    # an anonymous trail of one request, then a manager trail of two; the
    # gate blocks the request and the login, so the manager trail stops there
    store = ProfileStore(tmp_path / "store")
    store.record_exchange("GET /About.php HTTP/1.1\r\nHost: app\r\n\r\n", "0")
    for page in ("Home.php", "View.php"):
        store.record_exchange(f"GET /{page} HTTP/1.1\r\nHost: app\r\nCookie: PHPSESSID=t\r\n\r\n", "manager")
    keepalive_upstream.responses += [BLOCK_RESPONSE, BLOCK_RESPONSE]
    blocks, total = replay_training(store, keepalive_upstream.server_address, CREDENTIALS)
    assert (blocks, total) == (2, 2)
    assert [head.split(b" ", 2)[:2] for head in keepalive_upstream.received] == [
        [b"GET", b"/About.php"], [b"POST", b"/Login.php"]]
