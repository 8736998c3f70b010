import http.client

import pytest

from phpwarden.crawler import extract_links
from phpwarden.demoapp import ROUTES, SESSION_COOKIE, USERS, serve_app

from conftest import start_in_thread


@pytest.fixture(scope="module")
def app():
    server = serve_app(("127.0.0.1", 0), seed=7)
    start_in_thread(server)
    yield server.server_address
    server.shutdown()
    server.server_close()


def fetch(addr, path, cookie=None, method="GET", body=None):
    conn = http.client.HTTPConnection(*addr, timeout=5)
    headers = {}
    if cookie:
        headers["Cookie"] = f"{SESSION_COOKIE}={cookie}"
    if body is not None:
        headers["Content-Type"] = "application/x-www-form-urlencoded"
    conn.request(method, path, body=body, headers=headers)
    resp = conn.getresponse()
    data = resp.read().decode()
    headers_out = dict((k.lower(), v) for k, v in resp.getheaders())
    conn.close()
    return resp.status, headers_out, data


def login(addr, username, password):
    status, headers, _ = fetch(
        addr, "/Login.php", method="POST", body=f"username={username}&password={password}"
    )
    cookie = None
    set_cookie = headers.get("set-cookie", "")
    if set_cookie.startswith(f"{SESSION_COOKIE}="):
        cookie = set_cookie.split("=", 1)[1].split(";", 1)[0]
    return status, headers, cookie


# -- route table shape ---------------------------------------------------------


def test_route_counts_by_audience():
    public = [p for p, s in ROUTES.items() if not s.requires_session]
    assert sorted(public) == [
        "About.php", "Help.php", "Login.php", "Products.php", "Services.php", "index.php",
    ]
    manager_pages = [p for p, s in ROUTES.items() if "manager" in s.roles_allowed and s.requires_session]
    employer_pages = [p for p, s in ROUTES.items() if "employer" in s.roles_allowed and s.requires_session]
    # Logout.php is deliberately never linked; it still belongs to both
    assert len(manager_pages) == 9
    assert len(employer_pages) == 6


def test_links_stay_inside_route_table():
    for page, spec in ROUTES.items():
        for role in (None, "manager", "employer"):
            for target in spec.links_for(role):
                assert target in ROUTES, f"{page} links to unknown {target}"


def test_logout_is_never_linked():
    for page, spec in ROUTES.items():
        for role in (None, "manager", "employer"):
            assert "Logout.php" not in spec.links_for(role), page


# -- behaviour -------------------------------------------------------------------


def test_public_page_serves_without_cookie(app):
    status, _, body = fetch(app, "/About.php")
    assert status == 200
    assert "About.php" in body


def test_landing_page_lists_all_public_links(app):
    status, _, body = fetch(app, "/")
    assert status == 200
    assert extract_links(body) == [
        "About.php", "Help.php", "Login.php", "Services.php", "Products.php",
    ]


def test_protected_page_redirects_without_session(app):
    status, headers, _ = fetch(app, "/Home.php")
    assert status == 302
    assert headers["location"] == "/Login.php"


def test_unknown_page_is_404(app):
    status, _, _ = fetch(app, "/NoSuch.php")
    assert status == 404


def test_login_grants_cookie_and_redirects_home(app):
    status, headers, cookie = login(app, "mark", "maplesyrup")
    assert status == 302
    assert headers["location"] == "/Home.php"
    assert cookie


def test_invalid_login_gets_no_cookie(app):
    status, headers, cookie = login(app, "mark", "wrong")
    assert status == 200
    assert cookie is None
    status, headers, cookie = login(app, "", "")
    assert status == 200
    assert cookie is None


def test_role_dependent_home_links(app):
    _, _, mark = login(app, "mark", "maplesyrup")
    _, _, body = fetch(app, "/Home.php", cookie=mark)
    assert extract_links(body) == ["Assign_works.php", "User_mgmt.php", "View.php"]

    _, _, emma = login(app, "emma", "evergreen")
    _, _, body = fetch(app, "/Home.php", cookie=emma)
    assert extract_links(body) == ["Work_report.php", "View.php"]


def test_view_links_shared_across_roles(app):
    for username, password in (("mark", "maplesyrup"), ("emma", "evergreen")):
        _, _, cookie = login(app, username, password)
        _, _, body = fetch(app, "/View.php", cookie=cookie)
        assert extract_links(body) == ["Viewusers.php", "Viewroles.php"]


def test_app_does_not_enforce_roles_itself(app):
    # the deliberate gap the enforcer exists to close
    _, _, emma = login(app, "emma", "evergreen")
    status, _, _ = fetch(app, "/User_mgmt.php", cookie=emma)
    assert status == 200


def test_logout_invalidates_session(app):
    _, _, cookie = login(app, "mark", "maplesyrup")
    status, headers, _ = fetch(app, "/Logout.php", cookie=cookie)
    assert status == 302
    assert headers["location"] == "/Login.php"
    status, headers, _ = fetch(app, "/Home.php", cookie=cookie)
    assert status == 302


def test_login_page_serves_a_form(app):
    _, _, body = fetch(app, "/Login.php")
    assert "<form" in body
    assert 'name="username"' in body


def test_seeded_cookie_sequences_are_reproducible():
    a = serve_app(("127.0.0.1", 0), seed=42)
    b = serve_app(("127.0.0.1", 0), seed=42)
    try:
        assert [a.new_cookie() for _ in range(4)] == [b.new_cookie() for _ in range(4)]
    finally:
        a.server_close()
        b.server_close()


def test_users_table_roles():
    assert {role for _, role in USERS.values()} == {"manager", "employer"}
