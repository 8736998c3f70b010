"""Training-phase crawler.

Breadth-first href crawl that records every training exchange into a
ProfileStore.  Discovery is trail-oriented: the first visit to a page
creates a new trail, parent's pages plus the new page, and each trail is
then walked in full from its root so every recorded adjacent pair is a
transition the target app really offered.  Pages already discovered are
recorded again on later walks (the revisit is genuine traffic) but their
links are not expanded a second time.

Session management around an authenticated crawl — the login POST that
obtains the cookie and the final logout — is deliberately not recorded:
it is scaffolding for the crawl, not evidence of the role's browsing
surface.  The exception is the unauthenticated probe of the login form
(empty credentials), which IS recorded: submitting the form without
signing in is part of the public surface.

Each request goes out on a fresh connection as the exact head the store
records.  Its response is read through an http1.Connection, by the same
rules as the proxy: a response the proxy would answer 502 for, or one cut
short of its length or last chunk, is a CrawlError, and a chunked page is
decoded before its links are read.
"""

from __future__ import annotations

import re
from collections import deque
from urllib.parse import urlencode, urlsplit

from .http1 import LOGIN_FIELDS, LOGIN_PAGE, LOGOUT_PAGE, SESSION_COOKIE, Connection, login_succeeded, page_of
from .profile_store import ProfileStore

# a target with whitespace or a control character would break the request line
_HREF_RE = re.compile(r'href="([^"#\x00-\x20\x7f]+)"')

_PAGE_BUDGET = 10_000


class CrawlError(ValueError):
    """A crawl that cannot go on; a ValueError, as is any other input the
    CLI cannot use."""


def extract_links(html: str) -> list[str]:
    """Page names of same-site href targets, document order, deduplicated."""
    out: list[str] = []
    for target in _HREF_RE.findall(html):
        if target.startswith(("http://", "https://", "mailto:", "javascript:")):
            continue
        page = page_of(target)
        if page and page not in out:
            out.append(page)
    return out


def send_request(addr: tuple[str, int], method: str, path: str, user_agent: str,
                 cookie: str | None = None, form: dict | None = None,
                 cookie_name: str = SESSION_COOKIE):
    """One request on a fresh connection.  Returns (status, headers, body
    bytes, the exact header block sent), so a recorder can capture the
    request verbatim.  The response is read as the proxy reads it: one it
    would answer 502 for, or one whose body the upstream cuts short, raises
    ValueError, a transport failure OSError."""
    body = urlencode(form).encode() if form is not None else b""
    headers = [("Host", f"{addr[0]}:{addr[1]}"), ("User-Agent", user_agent)]
    if cookie:
        headers.append(("Cookie", f"{cookie_name}={cookie}"))
    if form is not None:
        headers.append(("Content-Type", "application/x-www-form-urlencoded"))
        headers.append(("Content-Length", str(len(body))))
    raw_head = f"{method} {path} HTTP/1.1\r\n" + "".join(f"{k}: {v}\r\n" for k, v in headers) + "\r\n"
    import socket  # loaded on first use: a scan sends nothing
    with socket.create_connection(addr, timeout=10) as sock:
        sock.sendall(raw_head.encode("latin-1") + body)
        conn = Connection(sock)
        _, status, fields, length = conn.read_response_head(method, lambda head: None)
        data: list[bytes] = []
        whole = conn.relay(length, lambda piece: None, on_data=data.append)
    if not whole:
        raise ValueError("response body cut short")
    return status, fields, b"".join(data), raw_head


def log_in(addr: tuple[str, int], user_agent: str, username: str, password: str,
           cookie: str | None = None, cookie_name: str = SESSION_COOKIE):
    """POST the login form for username and password with send_request.
    Returns (status, headers, the session cookie granted or None), judged
    by http1.login_succeeded as the gate judges it: only a redirect that
    sets the session cookie logs in.  Raises as send_request does."""
    status, headers, _, _ = send_request(addr, "POST", f"/{LOGIN_PAGE}", user_agent, cookie,
                                         dict(zip(LOGIN_FIELDS, (username, password))), cookie_name)
    return status, headers, login_succeeded(status, headers, cookie_name)


def crawl(
    base_url: str,
    role: str,
    credentials: tuple[str, str] | None,
    store: ProfileStore,
    *,
    user_agent: str = "phpwarden-trainer/0.1",
) -> list[str]:
    """Crawl base_url as role, recording into store.  Role "0" starts at
    the landing page with no login; any other role logs in with
    credentials first and starts where the login redirect points.
    Returns distinct pages visited, first-visit order."""
    split = urlsplit(base_url)
    host = split.hostname or "127.0.0.1"
    port = split.port or 80
    cookie: str | None = None

    def reach(send, path: str, *args, **kwargs):
        """send((host, port), ...) for path, its failures as CrawlError."""
        try:
            return send((host, port), *args, **kwargs)
        except OSError as exc:
            raise CrawlError(f"cannot reach http://{host}:{port}{path}: {exc}") from None
        except ValueError as exc:  # one the proxy would answer 502 for, or cut short
            raise CrawlError(f"http://{host}:{port}{path}: bad response: {exc}") from None

    def fetch(method: str, path: str, form: dict | None = None):
        status, headers, body, raw_head = reach(
            send_request, path, method, path, user_agent, cookie, form, store.session_cookie_name)
        return status, headers, body.decode("latin-1"), raw_head

    discovered: list[str] = []
    queue: deque[list[str]] = deque()

    if role == "0":
        if credentials is not None:
            raise CrawlError("role 0 is the unauthenticated crawl; no credentials apply")
        # landing fetch seeds the walk but is session scaffolding, unrecorded
        status, _, body, _ = fetch("GET", split.path or "/")
        if status != 200:
            raise CrawlError(f"landing page returned {status}")
        for page in extract_links(body):
            discovered.append(page)
            queue.append([page])
    else:
        if credentials is None:
            raise CrawlError(f"role {role} requires credentials")
        _, resp_headers, cookie = reach(log_in, f"/{LOGIN_PAGE}", user_agent, *credentials,
                                        cookie_name=store.session_cookie_name)
        if cookie is None:
            raise CrawlError(f"login failed for role {role}")
        location = next((v for k, v in resp_headers if k.lower() == "location"), "/")
        first = page_of(location)
        discovered.append(first)
        queue.append([first])

    visited_order: list[str] = []
    fetched = 0
    while queue:
        trail = queue.popleft()
        store.begin_trail(role)
        body = ""
        for index, page in enumerate(trail):
            fetched += 1
            if fetched > _PAGE_BUDGET:
                raise CrawlError(f"crawl exceeded {_PAGE_BUDGET} page fetches")
            status, _, body, raw_head = fetch("GET", f"/{page}")
            store.record_exchange(raw_head, role)
            if status != 200:
                raise CrawlError(f"GET /{page} returned {status} during role {role} crawl")
            if page not in visited_order:
                visited_order.append(page)
        leaf = trail[-1]
        if role == "0" and leaf == LOGIN_PAGE:
            # unauthenticated form probe: public surface, recorded
            _, _, _, raw_head = fetch("POST", f"/{LOGIN_PAGE}", form=dict.fromkeys(LOGIN_FIELDS, ""))
            store.record_exchange(raw_head, role)
        else:
            for link in extract_links(body):
                if link not in discovered:
                    discovered.append(link)
                    queue.append(trail + [link])

    if role != "0":
        fetch("GET", f"/{LOGOUT_PAGE}")  # unrecorded, see module docstring
    return visited_order
