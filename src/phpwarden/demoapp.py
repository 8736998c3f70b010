"""Simulated two-role target application.

A deliberately small PHP-less stand-in for the kind of intranet app the
rest of the toolchain trains on and protects: five public pages reachable
from a landing page, a login form, and a post-login page tree whose links
depend on the signed-in user's role.  The app itself performs NO per-role
access control beyond requiring a session; that gap is the point, since
authorization is supposed to be enforced in front of it.

Session cookies come from a seeded generator so whole end-to-end runs are
reproducible.  A login POST's body is framed by http1.declared_length, as
the gate frames it: a Content-Length that it refuses gets a 400, and the
body is not read.
"""

from __future__ import annotations

import random
import threading
from collections import namedtuple
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from .http1 import (LOGIN_FIELDS, LOGIN_PAGE, LOGOUT_PAGE, SESSION_COOKIE, cookie_value, declared_length, page_of,
                    read_login_form)

# username -> (password, role)
USERS = {
    "mark": ("maplesyrup", "manager"),
    "emma": ("evergreen", "employer"),
}


class PageSpec(namedtuple("PageSpec", "requires_session links roles_allowed")):
    """A route: whether it needs a session; links, role -> ordered link
    list, where key None is the any-role default; and roles_allowed, which
    documents intent only: the app does not enforce it."""

    __slots__ = ()

    def links_for(self, role: str | None) -> list[str]:
        if role in self.links:
            return self.links[role]
        return self.links.get(None, [])


_ANY = frozenset({"0", "manager", "employer"})
_AUTH = frozenset({"manager", "employer"})

ROUTES: dict[str, PageSpec] = {
    "index.php": PageSpec(False, {None: ["About.php", "Help.php", LOGIN_PAGE, "Services.php", "Products.php"]}, _ANY),
    "About.php": PageSpec(False, {}, _ANY),
    "Help.php": PageSpec(False, {}, _ANY),
    LOGIN_PAGE: PageSpec(False, {}, _ANY),
    "Services.php": PageSpec(False, {}, _ANY),
    "Products.php": PageSpec(False, {}, _ANY),
    "Home.php": PageSpec(True, {
        "manager": ["Assign_works.php", "User_mgmt.php", "View.php"],
        "employer": ["Work_report.php", "View.php"],
    }, _AUTH),
    "Assign_works.php": PageSpec(True, {}, frozenset({"manager"})),
    "User_mgmt.php": PageSpec(True, {"manager": ["Update_users.php", "Update_roles.php"]}, frozenset({"manager"})),
    "Update_users.php": PageSpec(True, {}, frozenset({"manager"})),
    "Update_roles.php": PageSpec(True, {}, frozenset({"manager"})),
    "View.php": PageSpec(True, {None: ["Viewusers.php", "Viewroles.php"]}, _AUTH),
    "Viewusers.php": PageSpec(True, {}, _AUTH),
    "Viewroles.php": PageSpec(True, {}, _AUTH),
    "Work_report.php": PageSpec(True, {}, frozenset({"employer"})),
    # reachable only by typing the URL; never linked, so never trained
    LOGOUT_PAGE: PageSpec(True, {}, _AUTH),
}


class DemoApp(ThreadingHTTPServer):
    """The app, bound on listen (a busy port raises); the caller drives serve_forever()."""

    daemon_threads = True

    def __init__(self, listen: tuple[str, int], seed: int = 0):
        super().__init__(listen, _Handler)
        self.rng = random.Random(seed)
        self.sessions: dict[str, str] = {}  # cookie -> username
        self.lock = threading.Lock()

    def new_cookie(self) -> str:
        with self.lock:
            return f"{self.rng.getrandbits(64):016x}"


class _Handler(BaseHTTPRequestHandler):
    server: DemoApp

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass

    def _send_page(self, title: str, body: str, status: int = 200, extra_headers=()):
        content = (
            f"<html><head><title>{title}</title></head>"
            f"<body><h1>{title}</h1>\n{body}\n</body></html>"
        ).encode()
        self.send_response(status)
        self.send_header("Content-Type", "text/html")
        self.send_header("Content-Length", str(len(content)))
        for name, value in extra_headers:
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(content)

    def _redirect(self, location: str, extra_headers=()):
        self.send_response(302)
        self.send_header("Location", location)
        self.send_header("Content-Length", "0")
        for name, value in extra_headers:
            self.send_header(name, value)
        self.end_headers()

    def _render(self, page: str, role: str | None):
        spec = ROUTES[page]
        links = "\n".join(f'<p><a href="{t}">{t}</a></p>' for t in spec.links_for(role))
        if page == LOGIN_PAGE:
            links = (
                f'<form method="post" action="{LOGIN_PAGE}">'
                f'<input name="{LOGIN_FIELDS[0]}"><input name="{LOGIN_FIELDS[1]}" type="password">'
                '<input type="submit" value="Sign in"></form>'
            )
        self._send_page(page, links)

    def do_GET(self):
        page = page_of(self.path)
        spec = ROUTES.get(page)
        if spec is None:
            self._send_page("Not Found", "<p>no such page</p>", status=404)
            return
        cookie = cookie_value(self.headers.get("Cookie", ""), SESSION_COOKIE)
        with self.server.lock:
            user = self.server.sessions.get(cookie)
        if spec.requires_session and user is None:
            self._redirect(f"/{LOGIN_PAGE}")
            return
        if page == LOGOUT_PAGE:
            with self.server.lock:
                self.server.sessions.pop(cookie, None)
            self._redirect(f"/{LOGIN_PAGE}")
            return
        role = USERS[user][1] if user else None
        self._render(page, role)

    def do_POST(self):
        if page_of(self.path) != LOGIN_PAGE:
            self._send_page("Not Found", "<p>no such page</p>", status=404)
            return
        try:
            length = declared_length([value.strip(" \t") for value in self.headers.get_all("Content-Length", ["0"])])
        except ValueError:
            self._send_page("Bad Request", "<p>bad Content-Length</p>", status=400)
            return
        body = self.rfile.read(length).decode("latin-1") if length else ""
        username, password = read_login_form(body)
        known = USERS.get(username)
        if known is None or known[0] != password:
            self._send_page(LOGIN_PAGE, "<p>Login failed.</p>")
            return
        cookie = self.server.new_cookie()
        with self.server.lock:
            self.server.sessions[cookie] = username
        self._redirect("/Home.php", [("Set-Cookie", f"{SESSION_COOKIE}={cookie}; Path=/")])

