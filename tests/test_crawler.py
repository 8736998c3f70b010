import socket
import threading

import pytest

from phpwarden.crawler import CrawlError, crawl, extract_links
from phpwarden.demoapp import serve_app
from phpwarden.http1 import parse_header_block
from phpwarden.profile_store import ProfileStore

from conftest import start_in_thread


def test_extract_links_order_and_dedup():
    html = (
        '<a href="B.php">b</a>'
        '<a href="A.php">a</a>'
        '<a href="B.php">again</a>'
        '<a href="sub/C.php?x=1">c</a>'
    )
    assert extract_links(html) == ["B.php", "A.php", "C.php"]


def test_extract_links_skips_offsite_and_pseudo_schemes():
    html = (
        '<a href="http://elsewhere.example/X.php">x</a>'
        '<a href="https://elsewhere.example/Y.php">y</a>'
        '<a href="mailto:root@example.com">m</a>'
        '<a href="javascript:void(0)">j</a>'
        '<a href="Real.php">r</a>'
    )
    assert extract_links(html) == ["Real.php"]


def test_extract_links_skips_targets_that_would_break_the_request_line():
    # the crawler writes the request line itself: a space or a line break in
    # a target would split it or smuggle a field line into the request
    html = ('<a href="a b.php">s</a><a href="c.php\r\nX-Injected: 1">n</a>'
            '<a href="d\x00.php">z</a><a href="Real.php">r</a>')
    assert extract_links(html) == ["Real.php"]


def test_extract_links_empty_html():
    assert extract_links("<p>nothing here</p>") == []


# -- live crawls against the shared trained stack -------------------------------


def test_role0_crawl_records_six_exchanges(trained):
    records = [r for r in trained.store.trail_records() if r[0] == "0"]
    total = sum(len(recs) for _, recs in records)
    assert total == 6
    ids = [parse_header_block(raw).method + "_" + parse_header_block(raw).target.lstrip("/")
           for _, recs in records for _, raw, _ in recs]
    assert sorted(ids) == [
        "GET_About.php",
        "GET_Help.php",
        "GET_Login.php",
        "GET_Products.php",
        "GET_Services.php",
        "POST_Login.php",
    ]


def test_role0_trails_shape(trained):
    trails = [t.pages for t in trained.store.trails if t.role == "0"]
    assert ["About.php"] in trails
    assert ["Login.php", "Login.php"] in trails  # GET then recorded POST probe
    assert all(len(t) <= 2 for t in trails)


def test_role0_requests_carry_no_session_flag(trained):
    for role, recs in trained.store.trail_records():
        if role != "0":
            continue
        for _, _, flag in recs:
            assert flag == 0


def test_manager_crawl_counts(trained):
    records = [r for r in trained.store.trail_records() if r[0] == "manager"]
    assert len(records) == 8  # one trail per discovered page
    assert sum(len(recs) for _, recs in records) == 19
    assert [len(recs) for _, recs in records] == [1, 2, 2, 2, 3, 3, 3, 3]


def test_employer_crawl_counts(trained):
    records = [r for r in trained.store.trail_records() if r[0] == "employer"]
    assert len(records) == 5
    assert sum(len(recs) for _, recs in records) == 11
    assert [len(recs) for _, recs in records] == [1, 2, 2, 3, 3]


def test_authenticated_trails_start_at_home(trained):
    for trail in trained.store.trails:
        if trail.role in ("manager", "employer"):
            assert trail.pages[0] == "Home.php"


def test_scaffolding_is_unrecorded(trained):
    # no landing page, no credentialed login POST, no logout anywhere
    for role, recs in trained.store.trail_records():
        for _, raw, _ in recs:
            head = parse_header_block(raw)
            assert head.target != "/"
            assert "Logout" not in head.target
            if head.method == "POST":
                assert role == "0"  # only the empty-credentials probe


def test_authenticated_requests_carry_session_cookie(trained):
    for role, recs in trained.store.trail_records():
        if role == "0":
            continue
        for _, raw, flag in recs:
            assert flag == 1
            assert "PHPSESSID=" in raw


def test_crawl_returns_first_visit_order(tmp_path):
    app = serve_app(("127.0.0.1", 0), seed=3)
    start_in_thread(app)
    try:
        base = "http://%s:%d/" % app.server_address
        store = ProfileStore(tmp_path / "store")
        visited = crawl(base, "0", None, store)
        assert visited == [
            "About.php", "Help.php", "Login.php", "Services.php", "Products.php",
        ]
        manager = crawl(base, "manager", ("mark", "maplesyrup"), store)
        assert manager[0] == "Home.php"
        assert set(manager) == {
            "Home.php", "Assign_works.php", "User_mgmt.php", "View.php",
            "Update_users.php", "Update_roles.php", "Viewusers.php", "Viewroles.php",
        }
    finally:
        app.shutdown()
        app.server_close()


def test_role0_with_credentials_is_an_error(tmp_path):
    store = ProfileStore(tmp_path / "store")
    with pytest.raises(CrawlError, match="role 0"):
        crawl("http://127.0.0.1:1/", "0", ("a", "b"), store)


def test_authenticated_role_requires_credentials(tmp_path):
    store = ProfileStore(tmp_path / "store")
    with pytest.raises(CrawlError, match="manager requires credentials"):
        crawl("http://127.0.0.1:1/", "manager", None, store)


def test_bad_credentials_name_the_role(tmp_path):
    app = serve_app(("127.0.0.1", 0), seed=3)
    start_in_thread(app)
    try:
        base = "http://%s:%d/" % app.server_address
        store = ProfileStore(tmp_path / "store")
        with pytest.raises(CrawlError, match="login failed for role manager"):
            crawl(base, "manager", ("mark", "not-the-password"), store)
        assert store.recorded_ids() == []  # nothing recorded on failed login
    finally:
        app.shutdown()
        app.server_close()


def test_unreachable_target_is_crawl_error(tmp_path):
    store = ProfileStore(tmp_path / "store")
    with pytest.raises(CrawlError, match="cannot reach"):
        crawl("http://127.0.0.1:1/", "0", None, store)


def test_crawl_user_agent_is_recorded(tmp_path):
    app = serve_app(("127.0.0.1", 0), seed=3)
    start_in_thread(app)
    try:
        base = "http://%s:%d/" % app.server_address
        store = ProfileStore(tmp_path / "store")
        crawl(base, "0", None, store, user_agent="custom-agent/9")
        raw, _ = store.read_exchange(1)
        assert parse_header_block(raw).get("User-Agent") == "custom-agent/9"
    finally:
        app.shutdown()
        app.server_close()


# -- responses read by the proxy's framing --------------------------------------


def page(body: bytes) -> bytes:
    return b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n" % len(body) + body


def test_chunked_page_with_a_link_split_across_chunks_is_followed(keepalive_upstream, tmp_path):
    # the upstream keeps its connection open: the crawler must end the page
    # at its last chunk and decode the data, not read the raw chunk framing
    keepalive_upstream.responses += [
        b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
        b"c\r\n<a href=\"Abo\r\n8;ext=1\r\nut.php\">\r\n4\r\nx</a\r\n1\r\n>\r\n0\r\nX-T: 1\r\n\r\n",
        page(b"<p>about</p>"),
    ]
    store = ProfileStore(tmp_path / "store")
    base = "http://%s:%d/" % keepalive_upstream.server_address
    assert crawl(base, "0", None, store) == ["About.php"]
    assert [parse_header_block(raw).target for _, raw, _ in store.trail_records()[0][1]] == ["/About.php"]


@pytest.mark.parametrize("role, credentials, response", [
    ("0", None, b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\nContent-Length: 5\r\n\r\nhello"),
    ("manager", ("mark", "maplesyrup"),
     b"HTTP/1.1 302 Found\r\nLocation: /Home.php\r\nSet-Cookie : PHPSESSID=ck; Path=/\r\n"
     b"Content-Length: 0\r\n\r\n"),
], ids=["two-content-lengths", "space-before-colon-in-set-cookie"])
def test_response_the_proxy_would_refuse_is_a_crawl_error(keepalive_upstream, tmp_path,
                                                          role, credentials, response):
    keepalive_upstream.responses.append(response)
    store = ProfileStore(tmp_path / "store")
    base = "http://%s:%d/" % keepalive_upstream.server_address
    with pytest.raises(CrawlError, match="bad response"):
        crawl(base, role, credentials, store)
    assert store.recorded_ids() == []


def test_response_with_a_bare_cr_is_a_crawl_error(keepalive_upstream, tmp_path):
    # a login whose Set-Cookie hides behind a bare CR: a browser that takes
    # the CR as a line break would hold the session
    keepalive_upstream.responses.append(
        b"HTTP/1.1 302 Found\r\nLocation: /Home.php\r\nX-Note: a\rSet-Cookie: PHPSESSID=ck; Path=/\r\n"
        b"Content-Length: 0\r\n\r\n")
    store = ProfileStore(tmp_path / "store")
    base = "http://%s:%d/" % keepalive_upstream.server_address
    with pytest.raises(CrawlError, match="bare CR"):
        crawl(base, "manager", ("mark", "maplesyrup"), store)
    assert store.recorded_ids() == []


def test_response_after_an_empty_line_is_a_crawl_error(keepalive_upstream, tmp_path):
    keepalive_upstream.responses.append(b"\r\nHTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhello")
    store = ProfileStore(tmp_path / "store")
    base = "http://%s:%d/" % keepalive_upstream.server_address
    with pytest.raises(CrawlError, match="empty line"):
        crawl(base, "0", None, store)
    assert store.recorded_ids() == []


def serve_once(response: bytes):
    """Base URL of a listener that answers one connection with response,
    then closes it, and the thread that does so."""
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(5)

    def answer():
        with listener, listener.accept()[0] as conn:
            conn.recv(65536)
            conn.sendall(response)

    thread = threading.Thread(target=answer)
    thread.start()
    return "http://%s:%d/" % listener.getsockname(), thread


@pytest.mark.parametrize("response", [
    b"HTTP/1.1 200 OK\r\nContent-Length: 50\r\n\r\n<a href=\"About.php\">",
    b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n14\r\n<a href=\"About.php\">\r\n",
], ids=["short-of-its-length", "before-the-last-chunk"])
def test_page_cut_short_by_the_upstream_is_a_crawl_error(tmp_path, response):
    base, thread = serve_once(response)
    with pytest.raises(CrawlError, match="cut short"):
        crawl(base, "0", None, ProfileStore(tmp_path / "store"))
    thread.join()
