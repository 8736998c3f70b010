import itertools
import logging
import tempfile
import threading
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phpwarden import enforcer as enforcer_module
from phpwarden.enforcer import (
    BLOCK,
    DONT_BLOCK,
    IDENTITY_MISMATCH,
    OK,
    ROLE_MISMATCH,
    SEQUENCE_VIOLATION,
    SESSION_FLAG_MISMATCH,
    UNKNOWN_PAGE_FOR_ROLE,
    UNKNOWN_REQUEST,
    ClientIdentity,
    DeviationLog,
    Enforcer,
    EnforcerConfig,
    Verdict,
    load_bindings,
    verify_level1,
    verify_level2,
    verify_request,
)
from phpwarden.models import ModelRow, NavigationModel, RequestModel, build_model
from phpwarden.http1 import SESSION_COOKIE, parse_header_block, request_key
from phpwarden.profile_store import ProfileStore

from conftest import BINDINGS_TEXT, read_records


def raw_head(target, ua="test-agent", cookie=None, method="GET", cookie_name=SESSION_COOKIE):
    lines = [f"{method} {target} HTTP/1.1", "Host: app.local", f"User-Agent: {ua}"]
    if cookie:
        lines.append(f"Cookie: {cookie_name}={cookie}")
    return "\r\n".join(lines) + "\r\n\r\n"


def toy_models():
    """Hand-built two-role model used by the oracle comparison and the
    smaller unit checks.  Open.php is a second manager entry with no
    outgoing edges; style.css appears only in the request relation."""
    triples = [
        ("GET_Home.php", 1, "manager"),
        ("GET_View.php", 1, "manager"),
        ("GET_Viewusers.php", 1, "manager"),
        ("GET_style.css", 1, "manager"),
        ("GET_Open.php", 0, "manager"),
        ("GET_Home.php", 1, "employer"),
        ("GET_Work_report.php", 1, "employer"),
    ]
    rows = [
        ModelRow(sno=i, convid=i, reqresid=t[0], session_flag=t[1], role=t[2])
        for i, t in enumerate(triples, start=1)
    ]
    nav = NavigationModel(
        graphs={
            "manager": {"Home.php": ["View.php"], "View.php": ["Viewusers.php"]},
            "employer": {"Home.php": ["Work_report.php"]},
        },
        entries={"manager": ["Home.php", "Open.php"], "employer": ["Home.php"]},
    )
    return RequestModel(rows=rows), nav


# -- Verdict invariants ---------------------------------------------------------


def test_verdict_status_reason_consistency():
    assert Verdict.ok().status == DONT_BLOCK
    assert Verdict.block(SEQUENCE_VIOLATION).blocked


def test_verdict_equality_ignores_the_head():
    head = parse_header_block("GET /a.php HTTP/1.1\r\nHost: x\r\n\r\n")
    assert Verdict(OK, "", head) == Verdict.ok()
    assert not Verdict(OK, "", head) != Verdict.ok()
    assert Verdict(ROLE_MISMATCH, "d", head) == Verdict.block(ROLE_MISMATCH, "d")
    assert Verdict.block(ROLE_MISMATCH, "d") != Verdict.block(ROLE_MISMATCH, "e")
    assert hash(Verdict(OK, "", head)) == hash(Verdict.ok())


def test_verdict_equality_ignores_the_key():
    head = parse_header_block("GET /a.php HTTP/1.1\r\nHost: x\r\n\r\n")
    verdict = Verdict(OK, "", head, request_key(head))
    assert verdict == Verdict.ok() and not verdict != Verdict.ok()
    assert hash(verdict) == hash(Verdict.ok())


def test_evaluate_hands_on_the_key_it_made_by_the_configured_cookie_name():
    verdict = mysess_engine().evaluate(MYSESS_HOME, "10.0.0.1")
    assert verdict.key == request_key(verdict.head, "MYSESS")
    assert verdict.key == ("GET_Home.php", "Home.php", "fresh", "browser-a")
    unparseable = mysess_engine().evaluate("GET /Home.php HTTP/1.1\r\nno colon\r\n\r\n", "10.0.0.1")
    assert unparseable.reason == UNKNOWN_REQUEST and unparseable.head is None and unparseable.key is None


def test_passing_verdict_without_detail_is_shared():
    assert Verdict.ok() is Verdict.ok()


@pytest.mark.parametrize("value, attribute", [
    (Verdict.ok(), "reason"),
    (ClientIdentity("1.1.1.1", "ua"), "ip"),
    (parse_header_block("GET /a.php HTTP/1.1\r\nHost: x\r\n\r\n"), "target"),
    (ModelRow(1, 1, "GET_a.php", 0, "0"), "role"),
], ids=["verdict", "identity", "head", "row"])
def test_shared_values_are_immutable(value, attribute):
    with pytest.raises(AttributeError):
        setattr(value, attribute, "changed")


def test_equal_client_identities_hash_alike():
    a, b = ClientIdentity("1.1.1.1", "ua"), ClientIdentity("1.1.1.1", "ua")
    assert a == b and hash(a) == hash(b)
    assert {a: 1}[b] == 1
    assert ClientIdentity("1.1.1.1", "ub") != a


# -- level 1 ----------------------------------------------------------------------


def test_level1_trained_triple_passes():
    model1, _ = toy_models()
    assert verify_level1("GET_Home.php", 1, "manager", model1).status == DONT_BLOCK


def test_level1_unknown_request():
    model1, _ = toy_models()
    verdict = verify_level1("GET_Ghost.php", 0, "manager", model1)
    assert verdict.reason == UNKNOWN_REQUEST


def test_level1_flag_mismatch_checked_before_role():
    model1, _ = toy_models()
    # Open.php is trained only at flag 0 and only for manager; an employer
    # probe at flag 1 fails on the flag, the stronger signal
    verdict = verify_level1("GET_Open.php", 1, "employer", model1)
    assert verdict.reason == SESSION_FLAG_MISMATCH


def test_level1_role_mismatch():
    model1, _ = toy_models()
    verdict = verify_level1("GET_Work_report.php", 1, "manager", model1)
    assert verdict.reason == ROLE_MISMATCH
    assert "employer" in verdict.detail


def test_level1_spec_examples_on_trained_model(trained):
    model1 = trained.model1
    assert verify_level1("GET_About.php", 0, "0", model1).status == DONT_BLOCK
    v = verify_level1("GET_Home.php", 0, "manager", model1)
    assert (v.status, v.reason) == (BLOCK, SESSION_FLAG_MISMATCH)
    v = verify_level1("GET_User_mgmt.php", 1, "employer", model1)
    assert (v.status, v.reason) == (BLOCK, ROLE_MISMATCH)


# -- level 2 ----------------------------------------------------------------------


def test_level2_entry_page_without_history():
    _, nav = toy_models()
    assert verify_level2("Home.php", "manager", None, nav).status == DONT_BLOCK
    assert verify_level2("Open.php", "manager", None, nav).status == DONT_BLOCK


def test_level2_non_entry_without_history():
    _, nav = toy_models()
    verdict = verify_level2("Viewusers.php", "manager", None, nav)
    assert verdict.reason == SEQUENCE_VIOLATION


def test_level2_trained_edge_passes():
    _, nav = toy_models()
    assert verify_level2("Viewusers.php", "manager", "View.php", nav).status == DONT_BLOCK


def test_level2_missing_edge_is_sequence_violation():
    _, nav = toy_models()
    verdict = verify_level2("Viewusers.php", "manager", "Home.php", nav)
    assert verdict.reason == SEQUENCE_VIOLATION
    assert "Home.php -> Viewusers.php" in verdict.detail


def test_level2_foreign_page_is_unknown_for_role():
    _, nav = toy_models()
    verdict = verify_level2("View.php", "employer", "Home.php", nav)
    assert verdict.reason == UNKNOWN_PAGE_FOR_ROLE


def test_level2_role_without_graph():
    _, nav = toy_models()
    verdict = verify_level2("Home.php", "ghost", None, nav)
    assert verdict.reason == UNKNOWN_PAGE_FOR_ROLE


def test_level2_spec_examples_on_trained_model(trained):
    nav = trained.model2
    assert verify_level2("Viewusers.php", "manager", "View.php", nav).status == DONT_BLOCK
    v = verify_level2("Viewusers.php", "manager", "Home.php", nav)
    assert v.reason == SEQUENCE_VIOLATION
    v = verify_level2("Assign_works.php", "employer", "Home.php", nav)
    assert v.reason == UNKNOWN_PAGE_FOR_ROLE


# -- detail strings (the deviation log's detail column) ----------------------------


def multi_flag_model():
    """GET_Mixed.php trained at flag 1 before flag 0, so a sorted listing
    differs from training order."""
    rows = [
        ModelRow(sno=1, convid=1, reqresid="GET_Mixed.php", session_flag=1, role="manager"),
        ModelRow(sno=2, convid=2, reqresid="GET_Mixed.php", session_flag=0, role="0"),
    ]
    return RequestModel(rows=rows)


def test_level1_detail_unknown_request():
    model1, _ = toy_models()
    verdict = verify_level1("GET_Ghost.php", 1, "manager", model1)
    assert verdict.detail == "GET_Ghost.php not in trained model"


def test_level1_detail_flag_mismatch_lists_trained_flags_sorted():
    verdict = verify_level1("GET_Mixed.php", 2, "manager", multi_flag_model())
    assert verdict.reason == SESSION_FLAG_MISMATCH
    assert verdict.detail == "GET_Mixed.php trained only with session flag 0, 1"
    model1, _ = toy_models()
    verdict = verify_level1("GET_Open.php", 1, "employer", model1)
    assert verdict.detail == "GET_Open.php trained only with session flag 0"


def test_level1_detail_role_mismatch_lists_trained_roles_sorted():
    model1, _ = toy_models()
    # Home.php at flag 1 was trained for manager first, then employer
    verdict = verify_level1("GET_Home.php", 1, "0", model1)
    assert verdict.reason == ROLE_MISMATCH
    assert verdict.detail == "GET_Home.php trained for role employer, manager, not 0"


def test_level2_detail_unknown_page():
    _, nav = toy_models()
    verdict = verify_level2("Ghost.php", "manager", "Home.php", nav)
    assert verdict.detail == "Ghost.php is not a page of role manager"
    verdict = verify_level2("Home.php", "ghost", None, nav)
    assert verdict.detail == "Home.php is not a page of role ghost"


def test_level2_detail_sequence_violations():
    _, nav = toy_models()
    verdict = verify_level2("Viewusers.php", "manager", None, nav)
    assert verdict.detail == "Viewusers.php is not an entry page for role manager"
    verdict = verify_level2("Viewusers.php", "manager", "Home.php", nav)
    assert verdict.detail == "no trained transition Home.php -> Viewusers.php for role manager"


# -- composed verify -------------------------------------------------------------


def test_verify_request_asset_skips_level2():
    model1, nav = toy_models()
    # style.css is no graph node, yet passes because assets stop at level 1
    verdict = verify_request(
        "GET_style.css", "style.css", 1, "manager", "Home.php", model1, nav
    )
    assert verdict.status == DONT_BLOCK


def test_verify_request_level1_blocks_before_level2():
    model1, nav = toy_models()
    verdict = verify_request(
        "GET_Home.php", "Home.php", 0, "manager", None, model1, nav
    )
    assert verdict.reason == SESSION_FLAG_MISMATCH


# -- exhaustive oracle comparison (acceptance criterion backing) -------------------


def naive_verdict(page, flag, role, last_page, triples, entries, graphs):
    """Brute-force membership oracle: nested loops over plain lists, no
    shared code with the verifier."""
    reqres_id = "GET_" + page
    matched = False
    for tid, tflag, trole in triples:
        if tid == reqres_id and tflag == flag and trole == role:
            matched = True
    if not matched:
        id_seen = False
        for tid, _, _ in triples:
            if tid == reqres_id:
                id_seen = True
        if not id_seen:
            return (BLOCK, UNKNOWN_REQUEST)
        flag_seen = False
        for tid, tflag, _ in triples:
            if tid == reqres_id and tflag == flag:
                flag_seen = True
        if not flag_seen:
            return (BLOCK, SESSION_FLAG_MISMATCH)
        return (BLOCK, ROLE_MISMATCH)
    if page.endswith((".css", ".js", ".png")):
        return (DONT_BLOCK, OK)
    if role not in entries and role not in graphs:
        return (BLOCK, UNKNOWN_PAGE_FOR_ROLE)
    nodes = []
    for p in entries.get(role, []):
        nodes.append(p)
    for p, nexts in graphs.get(role, {}).items():
        nodes.append(p)
        for n in nexts:
            nodes.append(n)
    if page not in nodes:
        return (BLOCK, UNKNOWN_PAGE_FOR_ROLE)
    if last_page is None:
        if page in entries.get(role, []):
            return (DONT_BLOCK, OK)
        return (BLOCK, SEQUENCE_VIOLATION)
    if page in graphs.get(role, {}).get(last_page, []):
        return (DONT_BLOCK, OK)
    return (BLOCK, SEQUENCE_VIOLATION)


def test_verify_matches_brute_force_oracle_exhaustively():
    model1, nav = toy_models()
    triples = [(r.reqresid, r.session_flag, r.role) for r in model1.rows]
    pages = [
        "Home.php", "View.php", "Viewusers.php", "Work_report.php",
        "Open.php", "style.css", "Ghost.php",
    ]
    last_pages = [None] + pages
    roles = ["manager", "employer", "0"]
    checked = 0
    for page, flag, role, last_page in itertools.product(pages, (0, 1), roles, last_pages):
        expected = naive_verdict(page, flag, role, last_page, triples, nav.entries, nav.graphs)
        got = verify_request("GET_" + page, page, flag, role, last_page, model1, nav)
        assert (got.status, got.reason) == expected, (page, flag, role, last_page)
        checked += 1
    assert checked == 7 * 2 * 3 * 8


_PAGES = ["a.php", "b.php", "c.php", "d.php", "s.css", "x.js", "i.png"]
_ROLES = ["0", "r1", "r2"]


@st.composite
def random_models(draw):
    """Small models over shared alphabets: (triples, graphs, entries)."""
    pages, roles = st.sampled_from(_PAGES), st.sampled_from(_ROLES)
    triples = draw(st.lists(st.tuples(pages.map("GET_".__add__), st.integers(0, 1), roles), max_size=20))
    graphs = draw(st.dictionaries(roles, st.dictionaries(pages, st.lists(pages, max_size=3)), max_size=3))
    entries = draw(st.dictionaries(roles, st.lists(pages, max_size=3), max_size=3))
    return triples, graphs, entries


_QUERIES = st.lists(
    st.tuples(
        st.sampled_from(_PAGES + ["ghost.php"]),
        st.integers(0, 1),
        st.sampled_from(_ROLES + ["ghost"]),
        st.none() | st.sampled_from(_PAGES),
    ),
    min_size=1, max_size=20,
)


@given(random_models(), _QUERIES)
def test_verify_matches_brute_force_oracle_on_random_models(model, queries):
    triples, graphs, entries = model
    model1 = RequestModel(rows=[
        ModelRow(sno=i, convid=i, reqresid=t[0], session_flag=t[1], role=t[2])
        for i, t in enumerate(triples, start=1)
    ])
    nav = NavigationModel(graphs=graphs, entries=entries)
    for page, flag, role, last_page in queries:
        expected = naive_verdict(page, flag, role, last_page, triples, entries, graphs)
        got = verify_request("GET_" + page, page, flag, role, last_page, model1, nav)
        assert (got.status, got.reason) == expected, (page, flag, role, last_page)


# -- compiled once ------------------------------------------------------------------


class CountingList(list):
    """A list that counts how often it is iterated."""

    iterations = 0

    def __iter__(self):
        self.iterations += 1
        return super().__iter__()


class CountingDict(dict):
    """A dict that counts every walk over its keys, values or items."""

    walks = 0

    def __iter__(self):
        self.walks += 1
        return super().__iter__()

    def keys(self):
        self.walks += 1
        return super().keys()

    def values(self):
        self.walks += 1
        return super().values()

    def items(self):
        self.walks += 1
        return super().items()


def test_models_are_compiled_once_not_per_request():
    roles = [f"r{k}" for k in range(10)]
    own = {role: [f"{role}_{j}.php" for j in range(50)] for role in roles}
    # 1,000 rows per role, cycling over Home.php and the role's own pages
    recorded = [
        (role, page) for role in roles
        for page in itertools.islice(itertools.cycle(["Home.php"] + own[role]), 1000)
    ]
    rows = CountingList(
        ModelRow(sno=i, convid=i, reqresid="GET_" + page, session_flag=1, role=role)
        for i, (role, page) in enumerate(recorded, start=1)
    )
    assert len(rows) == 10_000
    graphs = {}
    for role in roles:
        pages = own[role]
        graph = CountingDict({pages[j]: [pages[(j + 1) % 50], pages[(j + 7) % 50]] for j in range(50)})
        graph["Home.php"] = [pages[0]]
        graphs[role] = graph
    nav = NavigationModel(graphs=graphs, entries={role: ["Home.php"] for role in roles})
    engine = Enforcer(RequestModel(rows=rows), nav, {f"user{k}": role for k, role in enumerate(roles)})

    reasons = Counter()
    for k, role in enumerate(roles):
        ip, ua = f"10.0.0.{k}", f"walker-{k}"
        engine.note_login(ip, ua, f"user{k}", f"cookie-{k}")
        pages, j = own[role], None
        for step in range(100):
            if step % 10 == 9:
                page = own[roles[(k + 1) % 10]][5]  # another role's page
            elif step % 13 == 12:
                page = "Ghost.php"
            elif step % 17 == 16 and j is not None:
                page = pages[(j + 3) % 50]  # no trained edge
            else:
                page = "Home.php" if step == 0 else pages[0 if j is None else (j + 1) % 50]
            verdict = engine.evaluate(raw_head(f"/{page}", ua=ua, cookie=f"cookie-{k}"), ip)
            reasons[verdict.reason] += 1
            if not verdict.blocked and page != "Home.php":
                j = pages.index(page)
    assert sum(reasons.values()) == 1000
    assert {OK, ROLE_MISMATCH, UNKNOWN_REQUEST, SEQUENCE_VIOLATION} <= set(reasons)
    assert rows.iterations <= 1
    assert all(graph.walks <= 1 for graph in graphs.values())


# -- role binding ------------------------------------------------------------------


def test_load_bindings():
    bindings = load_bindings("# staff\nmark,manager\n\nemma , employer\n")
    assert bindings == {"mark": "manager", "emma": "employer"}


def test_load_bindings_bad_line_numbered():
    with pytest.raises(ValueError, match="line 2"):
        load_bindings("mark,manager\nnonsense\n")


@pytest.mark.parametrize("line", ["mark,", ",manager", " , ", "mark , "],
                         ids=["no-role", "no-username", "neither", "blank-role"])
def test_load_bindings_refuses_an_empty_username_or_role(line):
    # a user bound to role "" would pass no model's level 1 once logged in
    with pytest.raises(ValueError, match="^bindings line 2: expected username,role, neither empty$"):
        load_bindings(f"emma,employer\n{line}\n")


# -- the stateful engine ------------------------------------------------------------


@pytest.fixture
def engine(trained, tmp_path):
    log = DeviationLog(str(tmp_path / "deviations.log"))
    yield Enforcer(trained.model1, trained.model2, load_bindings(BINDINGS_TEXT), log)
    log.close()


def test_genuine_manager_walk(engine):
    engine.note_login("10.0.0.1", "browser-a", "mark", "cookie-1")
    for page in ("Home.php", "View.php", "Viewusers.php"):
        verdict = engine.evaluate(raw_head(f"/{page}", ua="browser-a", cookie="cookie-1"), "10.0.0.1")
        assert verdict.status == DONT_BLOCK, page
    assert engine.blocked_count == 0


def test_blocked_request_leaves_history_untouched(engine):
    engine.note_login("10.0.0.1", "browser-a", "mark", "cookie-1")
    assert engine.evaluate(raw_head("/Home.php", ua="browser-a", cookie="cookie-1"), "10.0.0.1").status == DONT_BLOCK
    blocked = engine.evaluate(raw_head("/Viewusers.php", ua="browser-a", cookie="cookie-1"), "10.0.0.1")
    assert blocked.reason == SEQUENCE_VIOLATION
    # last_page is still Home.php, so the trained Home -> View edge applies
    assert engine.evaluate(raw_head("/View.php", ua="browser-a", cookie="cookie-1"), "10.0.0.1").status == DONT_BLOCK


def test_two_requests_of_one_client_do_not_interleave(engine, monkeypatch):
    # the first request is held inside its verification; the second must
    # wait for it and see the page it moved to, not the history before it
    original = enforcer_module.verify_request
    entered, release = threading.Event(), threading.Event()
    seen = []

    def held(reqres_id, page, session_flag, role, last_page, model1, model2):
        if not entered.is_set():
            entered.set()
            release.wait(5)
        else:
            seen.append(last_page)
        return original(reqres_id, page, session_flag, role, last_page, model1, model2)

    monkeypatch.setattr(enforcer_module, "verify_request", held)
    engine.note_login("10.0.0.1", "browser-a", "mark", "cookie-1")
    verdicts = {}

    def evaluate(page):
        verdicts[page] = engine.evaluate(raw_head(f"/{page}", ua="browser-a", cookie="cookie-1"), "10.0.0.1")

    first = threading.Thread(target=evaluate, args=("Home.php",))
    first.start()
    assert entered.wait(5)
    second = threading.Thread(target=evaluate, args=("View.php",))
    second.start()
    second.join(0.2)
    release.set()
    first.join(5)
    second.join(5)
    assert seen == ["Home.php"]
    assert verdicts["Home.php"].status == DONT_BLOCK
    assert verdicts["View.php"].status == DONT_BLOCK


def test_hijacked_cookie_blocked_by_identity(engine):
    engine.note_login("10.0.0.1", "victim-browser", "mark", "cookie-v")
    assert engine.evaluate(raw_head("/Home.php", ua="victim-browser", cookie="cookie-v"), "10.0.0.1").status == DONT_BLOCK
    verdict = engine.evaluate(raw_head("/Home.php", ua="thief-browser", cookie="cookie-v"), "6.6.6.6")
    assert verdict.reason == IDENTITY_MISMATCH
    # same user agent from another address is still a different identity
    verdict = engine.evaluate(raw_head("/Home.php", ua="victim-browser", cookie="cookie-v"), "6.6.6.6")
    assert verdict.reason == IDENTITY_MISMATCH


def test_cookie_pins_to_first_presenter_even_when_blocked(engine):
    first = engine.evaluate(raw_head("/About.php", ua="agent-a", cookie="stray"), "10.0.0.5")
    assert first.reason == SESSION_FLAG_MISMATCH  # About.php trained cookieless
    other = engine.evaluate(raw_head("/About.php", ua="agent-b", cookie="stray"), "10.0.0.6")
    assert other.reason == IDENTITY_MISMATCH


def test_cookieless_probe_of_protected_page(engine):
    verdict = engine.evaluate(raw_head("/Home.php", ua="nobody"), "10.9.9.9")
    assert (verdict.status, verdict.reason) == (BLOCK, SESSION_FLAG_MISMATCH)


def test_unknown_url_blocked_as_unknown_request(engine):
    verdict = engine.evaluate(raw_head("/Secret.php", ua="nobody"), "10.9.9.9")
    assert verdict.reason == UNKNOWN_REQUEST


def test_malformed_head_blocked_and_logged(engine, tmp_path):
    verdict = engine.evaluate("NOT A REQUEST\r\n\r\n", "10.9.9.9")
    assert verdict.reason == UNKNOWN_REQUEST
    records = read_records(str(tmp_path / "deviations.log"))
    assert len(records) == 1
    assert records[0][2] == "NOT A REQUEST"


def test_a_bare_cr_in_an_unparseable_head_forges_no_log_line(engine, tmp_path):
    # a universal-newline reader ends a line at a bare CR too
    verdict = engine.evaluate("GET /a.php\rForged\tline HTTP/1.1\r\nHost: x\r\n\r\n", "10.0.0.1")
    assert verdict.reason == UNKNOWN_REQUEST
    (record,) = read_records(str(tmp_path / "deviations.log"))
    assert len(record) == 6
    assert record[2] == "GET /a.php Forged line HTTP/1.1"


def test_verdict_carries_the_head_evaluate_parsed(engine):
    allowed = engine.evaluate(raw_head("/About.php", ua="head-a"), "10.9.9.8")
    assert allowed.head.target == "/About.php" and allowed.head.get("User-Agent") == "head-a"
    blocked = engine.evaluate(raw_head("/Home.php", ua="head-a"), "10.9.9.8")
    assert blocked.blocked and blocked.head.target == "/Home.php"
    # the head takes no part in a verdict's equality
    assert allowed == Verdict.ok()
    assert engine.evaluate("NOT A REQUEST\r\n\r\n", "10.9.9.8").head is None


def _mixed_case(word):
    return st.lists(st.booleans(), min_size=len(word), max_size=len(word)).map(
        lambda upper: "".join(c.upper() if u else c for c, u in zip(word, upper)))


@st.composite
def keyed_heads(draw):
    """(raw head, session cookie name): a mixed-case method; a target with
    a query, a fragment or a bare /, and no segment past a script; 0-3
    Cookie fields whose session pair is present, empty, misnamed or
    padded."""
    name = draw(st.sampled_from([SESSION_COOKIE, "MYSESS"]))
    method = draw(st.sampled_from(["get", "post", "head"]).flatmap(_mixed_case))
    dirs = draw(st.lists(st.sampled_from(["app", "Admin", "v2", "a.b"]), max_size=2))
    page = draw(st.sampled_from(["", "Home.php", "About.PHP", "index.php", "style.css", "x"]))
    suffix = draw(st.sampled_from(["", "?q=1", "?next=/Secret.php/x", "#top", "?a=1#b/c.php/d"]))
    target = "/" + "".join(f"{d}/" for d in dirs) + page + suffix
    session_pair = st.sampled_from([f"{name}=abc", f"{name}=", f" {name} = abc ", f"{name}x=abc",
                                    f"x{name}=abc", f"{name.lower()}=abc", f"{name}=  "])
    other_pair = st.sampled_from(["theme=dark", "a=", "=b", "flag"])
    fields = draw(st.lists(st.lists(st.one_of(session_pair, other_pair), min_size=1, max_size=3)
                           .map("; ".join), max_size=3))
    lines = [f"{method} {target} HTTP/1.1", "Host: app.local"]
    lines += draw(st.sampled_from([[], ["User-Agent: agent/1"], ["user-agent: a", "User-Agent: b"]]))
    lines += [f"Cookie: {value}" for value in fields]
    return "\r\n".join(lines) + "\r\n\r\n", name


@settings(max_examples=200, derandomize=True, deadline=None)
@given(keyed_heads())
def test_training_and_the_gate_key_a_head_alike(case):
    # a head recorded in training and built into the model passes the gate
    # sent as it was recorded: both read its request id, page and session
    # flag by one rule
    head, name = case
    with tempfile.TemporaryDirectory() as directory:
        store = ProfileStore(directory, session_cookie_name=name)
        store.record_exchange(head, "0")
        model1, model2 = build_model(store)
    engine = Enforcer(model1, model2, {}, config=EnforcerConfig(session_cookie_name=name))
    verdict = engine.evaluate(head, "10.0.0.1")
    assert not verdict.blocked, verdict


def test_idle_timeout_reverts_role(trained, tmp_path):
    now = [1000.0]
    engine = Enforcer(
        trained.model1, trained.model2, load_bindings(BINDINGS_TEXT),
        DeviationLog(str(tmp_path / "d.log")), clock=lambda: now[0],
    )
    try:
        engine.note_login("10.0.0.1", "browser-a", "mark", "cookie-1")
        assert engine.evaluate(raw_head("/Home.php", ua="browser-a", cookie="cookie-1"), "10.0.0.1").status == DONT_BLOCK
        now[0] += 3600.0  # past the 1800 s default
        verdict = engine.evaluate(raw_head("/Home.php", ua="browser-a", cookie="cookie-1"), "10.0.0.1")
        assert verdict.reason == ROLE_MISMATCH  # evaluated as role 0 again
    finally:
        engine.log.close()


def test_note_logout_resets_role(engine):
    engine.note_login("10.0.0.1", "browser-a", "mark", "cookie-1")
    engine.note_logout("10.0.0.1", "browser-a")
    verdict = engine.evaluate(raw_head("/Home.php", ua="browser-a", cookie="cookie-1"), "10.0.0.1")
    assert verdict.reason == ROLE_MISMATCH


# -- the login/logout response rule, under a custom cookie name ------------------


def mysess_engine():
    model1, model2 = toy_models()
    return Enforcer(model1, model2, load_bindings(BINDINGS_TEXT),
                    config=EnforcerConfig(session_cookie_name="MYSESS"))


def passed(raw, cookie_name="MYSESS"):
    """The passing verdict evaluate() gives raw, with the key it makes."""
    head = parse_header_block(raw)
    return Verdict(OK, "", head, request_key(head, cookie_name))


def log_in_by_response(engine, method="POST", set_cookie="MYSESS=fresh; path=/"):
    login = passed(raw_head("/Login.php", ua="browser-a", method=method))
    engine.note_response("10.0.0.1", login, b"username=mark&password=maplesyrup", 302,
                         [("Location", "Home.php"), ("Set-Cookie", set_cookie)])


MYSESS_HOME = raw_head("/Home.php", ua="browser-a", cookie="fresh", cookie_name="MYSESS")


@pytest.mark.parametrize("method, set_cookie, reason", [
    ("POST", "MYSESS=fresh; path=/", OK),
    ("POST", "PHPSESSID=fresh; path=/", ROLE_MISMATCH),
    ("GET", "MYSESS=fresh; path=/", ROLE_MISMATCH),
], ids=["post-sets-the-configured-cookie", "post-sets-another-cookie", "get"])
def test_login_response_binds_the_role_by_the_configured_cookie_name(method, set_cookie, reason):
    engine = mysess_engine()
    log_in_by_response(engine, method, set_cookie)
    # Home.php is trained for the manager with a session only; role 0 misses it
    assert engine.evaluate(MYSESS_HOME, "10.0.0.1").reason == reason


def test_logout_response_clears_the_role_under_a_custom_cookie_name():
    engine = mysess_engine()
    log_in_by_response(engine)
    assert engine.evaluate(MYSESS_HOME, "10.0.0.1").reason == OK
    logout = passed(raw_head("/Logout.php", ua="browser-a", cookie="fresh", cookie_name="MYSESS"))
    engine.note_response("10.0.0.1", logout, b"", 302, [("Location", "index.php")])
    assert engine.evaluate(MYSESS_HOME, "10.0.0.1").reason == ROLE_MISMATCH


def test_unknown_login_username_is_not_a_deviation(engine, tmp_path, caplog):
    with caplog.at_level(logging.WARNING, logger="phpwarden.enforcer"):
        engine.note_login("10.0.0.2", "browser-x", "stranger", "cookie-x")
    assert caplog.records  # warned through the logging module
    log_path = tmp_path / "deviations.log"
    assert not log_path.exists() or read_records(str(log_path)) == []
    verdict = engine.evaluate(raw_head("/About.php", ua="browser-x"), "10.0.0.2")
    assert verdict.status == DONT_BLOCK  # bound as role 0, public page fine


def test_every_block_writes_exactly_one_record(engine, tmp_path):
    engine.note_login("10.0.0.1", "browser-a", "mark", "cookie-1")
    heads = [
        raw_head("/Home.php", ua="browser-a", cookie="cookie-1"),   # ok
        raw_head("/Viewusers.php", ua="browser-a", cookie="cookie-1"),  # block
        raw_head("/Nope.php", ua="someone"),                        # block
        raw_head("/About.php", ua="someone"),                       # ok
        raw_head("/Home.php", ua="thief", cookie="cookie-1"),       # block
    ]
    for head in heads:
        engine.evaluate(head, "10.0.0.1" if "browser-a" in head else "7.7.7.7")
    records = read_records(str(tmp_path / "deviations.log"))
    assert engine.blocked_count == 3
    assert len(records) == 3


def test_deviation_record_fields(engine, tmp_path):
    engine.evaluate(raw_head("/Home.php", ua="nobody"), "10.9.9.9")
    (record,) = read_records(str(tmp_path / "deviations.log"))
    assert len(record) == 6
    timestamp, identity, request_text, level, reason, detail = record
    from datetime import datetime

    datetime.fromisoformat(timestamp)  # parses
    assert identity == "10.9.9.9 nobody"
    assert request_text == "GET_Home.php"
    assert level == "1"
    assert reason == SESSION_FLAG_MISMATCH
    assert detail


def test_deviation_log_flattens_tabs_and_newlines(tmp_path):
    log = DeviationLog(str(tmp_path / "d.log"))
    log.record(0.0, ClientIdentity("1.1.1.1", "ua\twith\ttabs"), "id\nwith\nnewlines", "1", "x", "d\rwith\rCRs")
    log.close()
    (record,) = read_records(str(tmp_path / "d.log"))
    assert len(record) == 6
    assert record[1] == "1.1.1.1 ua with tabs"
    assert record[2] == "id with newlines"
    assert record[5] == "d with CRs"


def test_deviation_log_record_is_on_disk_when_record_returns(tmp_path):
    path = str(tmp_path / "d.log")
    log = DeviationLog(path)
    try:
        identity = ClientIdentity("1.1.1.1", "ua")
        log.record(0.0, identity, "GET_a.php", "1", UNKNOWN_REQUEST, "first")
        assert [r[5] for r in read_records(path)] == ["first"]
        log.record(1.0, identity, "GET_b.php", "1", UNKNOWN_REQUEST, "second")
        assert [r[5] for r in read_records(path)] == ["first", "second"]
    finally:
        log.close()


def test_level_for_reason_table_is_total():
    from phpwarden.enforcer import LEVEL_FOR_REASON

    assert set(LEVEL_FOR_REASON) == {
        UNKNOWN_REQUEST, SESSION_FLAG_MISMATCH, ROLE_MISMATCH,
        UNKNOWN_PAGE_FOR_ROLE, SEQUENCE_VIOLATION, IDENTITY_MISMATCH,
    }
    assert set(LEVEL_FOR_REASON.values()) == {"1", "2", "identity"}


_TRACE_HOOK_SCRIPT = """
import json, sys
sys.path[:0] = sys.argv[1:3]
import spans
from phpwarden.enforcer import Enforcer
from phpwarden.models import ModelRow, NavigationModel, RequestModel

recorder = spans.Recorder(None)
spans.instrument(recorder)
model1 = RequestModel(rows=[ModelRow(1, 1, "GET_About.php", 0, "0")])
model2 = NavigationModel(graphs={}, entries={"0": ["About.php"]})
verdict = Enforcer(model1, model2, {}).evaluate(
    "GET /About.php HTTP/1.1\\r\\nUser-Agent: trace-check\\r\\n\\r\\n", "127.0.0.1")
print(json.dumps({"reason": verdict.reason, "spans": sorted({s[1] for s in recorder.spans})}))
"""


def test_trace_hooks_reach_the_enforcer_layers(repo_root):
    # perfbench/spans.py wraps these functions through the enforcer module's
    # globals; a refactor that calls them another way leaves the traced
    # benchmark without spans for them
    import json
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-c", _TRACE_HOOK_SCRIPT,
         str(repo_root / "perfbench"), str(repo_root / "src")],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["reason"] == "ok"
    assert {
        "enforcer.evaluate",
        "enforcer.parse_header_block",
        "enforcer.verify_level1",
        "enforcer.verify_level2",
    } <= set(result["spans"])
