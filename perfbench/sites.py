"""The two gated sites, their trained surfaces, and seeded session walks.

`small` is phpwarden's own demo app trained by its crawler for roles 0,
manager and employer.  Its trained surface below is written out by hand from
the demo app's routes and the crawler's rules (every public page is a
one-page trail, the login form probe adds Login -> Login, each role's tree is
walked root to leaf), so the benchmark's expectations never come from the
enforcer.

`large` is a seeded site served by this package's own upstream (framed like
the demo app) with several roles whose trails are recorded straight through
`ProfileStore.record_exchange`, giving about 8k model rows.

A walk is one simulated browser session with a fresh (ip, user agent): every
step names the response it must get.  A step the enforcer must block names
its reason; a blocked step leaves the client's state where it was.

Run as a script this module is the large site's upstream (`serve`) or its
trainer (`train`).
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import dataclass, field

LOGIN = "Login.php"
HOME = "Home.php"
LOGOUT = "Logout.php"
COOKIE = "PHPSESSID"
TRAINER_UA = "phpwarden-trainer/0.1"

UNKNOWN_REQUEST = "unknown_request"
SESSION_FLAG_MISMATCH = "session_flag_mismatch"
ROLE_MISMATCH = "role_mismatch"
SEQUENCE_VIOLATION = "sequence_violation"
IDENTITY_MISMATCH = "identity_mismatch"
# The block reasons walks plant.  The sixth, unknown_page_for_role, cannot be
# planted: a model built from a profile store puts every page a role
# requested into that role's navigation graph, so a request that passes
# level 1 always names a page of the role.  Its expected count is 0, which
# the verdict-count check still enforces.
REASONS = (UNKNOWN_REQUEST, SESSION_FLAG_MISMATCH, ROLE_MISMATCH, SEQUENCE_VIOLATION,
           IDENTITY_MISMATCH)


@dataclass
class Site:
    public: list[str]                              # role 0 entry pages
    users: dict[str, tuple[str, str]]              # role -> (username, password)
    edges: dict[str, dict[str, list[str]]]         # role -> page -> trained successors
    trails: dict[str, list[list[str]]] = field(default_factory=dict)  # recorded by the trainer

    def pages(self, role: str) -> list[str]:
        out = {HOME}
        for page, nexts in self.edges[role].items():
            out.add(page)
            out.update(nexts)
        return sorted(out)

    def bindings(self) -> str:
        return "".join(f"{user},{role}\n" for role, (user, _) in self.users.items())


def small_site() -> Site:
    return Site(
        public=["About.php", "Help.php", LOGIN, "Services.php", "Products.php"],
        users={"manager": ("mark", "maplesyrup"), "employer": ("emma", "evergreen")},
        edges={
            "manager": {
                HOME: ["Assign_works.php", "User_mgmt.php", "View.php"],
                "User_mgmt.php": ["Update_users.php", "Update_roles.php"],
                "View.php": ["Viewusers.php", "Viewroles.php"],
            },
            "employer": {
                HOME: ["Work_report.php", "View.php"],
                "View.php": ["Viewusers.php", "Viewroles.php"],
            },
        },
    )


LARGE_ROLES = 10
LARGE_PAGES_PER_ROLE = 200
LARGE_ROWS_PER_ROLE = 800
LARGE_TRAIL_LEN = 20


def large_site(seed: int) -> Site:
    """Roles role1..role10, each with its own pages r<k>_<j>.php below a
    shared Home.php.  Each role records trails of LARGE_TRAIL_LEN pages
    (Home then a random walk over a seeded link graph) until it has
    LARGE_ROWS_PER_ROLE exchanges; the trained edges are the adjacent pairs
    of those trails."""
    rng = random.Random(f"large-site-{seed}")
    site = Site(public=["About.php", "Help.php", LOGIN, "Contact.php", "Pricing.php"],
                users={}, edges={})
    for k in range(1, LARGE_ROLES + 1):
        role = f"role{k}"
        site.users[role] = (f"user{k}", f"secret{k}")
        own = [f"r{k}_{j:03d}.php" for j in range(LARGE_PAGES_PER_ROLE)]
        links = {p: rng.sample(own, 4) for p in own}
        links[HOME] = rng.sample(own, 12)
        trails, edges, recorded = [], {}, 0
        while recorded < LARGE_ROWS_PER_ROLE:
            trail, page = [HOME], HOME
            while len(trail) < LARGE_TRAIL_LEN:
                page = rng.choice(links[page])
                trail.append(page)
            for prev, nxt in zip(trail, trail[1:]):
                nexts = edges.setdefault(prev, [])
                if nxt not in nexts:
                    nexts.append(nxt)
            trails.append(trail)
            recorded += len(trail)
        site.trails[role] = trails
        site.edges[role] = edges
    return site


# -- walks ---------------------------------------------------------------------


@dataclass
class Step:
    who: int                   # 0 the walk's browser, 1 a second browser (the thief)
    method: str
    page: str
    cookie: bool               # send the walk's session cookie
    status: int                # expected status
    reason: str | None         # expected X-Deviation-Reason, None when forwarded
    form: dict | None = None


@dataclass
class Walk:
    identities: list[tuple[str, str]]   # (ip, user agent) per `who`
    steps: list[Step]


def _ok(page, status=200, *, cookie=True, method="GET", form=None) -> Step:
    return Step(0, method, page, cookie, status, None, form)


def _block(page, reason, *, cookie=True, who=0) -> Step:
    return Step(who, "GET", page, cookie, 403, reason)


class WalkGenerator:
    """Seeded, endless walk source.  `deviation` is the chance that a step of
    an authenticated walk is a planted deviation; identities are fresh per
    walk, on distinct loopback addresses when `distinct_ips` is set."""

    def __init__(self, site: Site, seed: int, tag: str, deviation: float, distinct_ips: bool):
        self.site = site
        self.rng = random.Random(f"walks-{tag}-{seed}")
        self.tag = tag
        self.deviation = deviation
        self.distinct_ips = distinct_ips
        self.count = 0
        self.other_pages = {r: sorted({p for o in site.edges for p in site.pages(o)} - set(site.pages(r)))
                            for r in site.edges}

    def _identity(self, n: int, who: str) -> tuple[str, str]:
        ip = "127.0.0.1"
        if self.distinct_ips:
            ip = f"127.{1 + (n // 62500) % 200}.{1 + (n // 250) % 250}.{1 + n % 250}"
        return ip, f"bench-{self.tag}-{n}-{who}"

    def __iter__(self):
        return self

    def __next__(self) -> Walk:
        n = self.count
        self.count += 1
        roles = list(self.site.edges)
        role = self.rng.choice(["0"] + roles + roles)
        walk = Walk([self._identity(n, "user"), self._identity(n, "thief")], [])
        if role == "0":
            self._public_walk(walk.steps)
        else:
            self._session_walk(role, walk.steps)
        return walk

    def _public_walk(self, steps: list[Step]) -> None:
        rng, site = self.rng, self.site
        first = rng.choice(site.public)
        steps.append(_ok(first, cookie=False))
        if first == LOGIN and rng.random() < 0.5:
            steps.append(_ok(LOGIN, method="POST", cookie=False,
                             form={"username": "guest", "password": "guest"}))
        roll = rng.random()
        if roll < 0.15:
            steps.append(_block(rng.choice([p for p in site.public if p != first]),
                                SEQUENCE_VIOLATION, cookie=False))
        elif roll < 0.30:
            steps.append(_block(HOME, SESSION_FLAG_MISMATCH, cookie=False))
        elif roll < 0.40:
            steps.append(_block("index.php", UNKNOWN_REQUEST, cookie=False))

    def _session_walk(self, role: str, steps: list[Step]) -> None:
        rng, site = self.rng, self.site
        user, password = site.users[role]
        edges = site.edges[role]
        steps.append(_ok(LOGIN, cookie=False))
        steps.append(_ok(LOGIN, 302, method="POST", cookie=False,
                         form={"username": user, "password": password}))
        page = HOME
        steps.append(_ok(HOME))
        for _ in range(rng.randrange(2, 8)):
            nexts = edges.get(page)
            if rng.random() < self.deviation:
                steps.append(self._deviation(role, page))
            elif nexts:
                page = rng.choice(nexts)
                steps.append(_ok(page))
            else:
                break
        if rng.random() < 0.3:
            # the demo app never links Logout.php, so no role is trained on it
            steps.append(_block(LOGOUT, UNKNOWN_REQUEST))

    def _deviation(self, role: str, page: str) -> Step:
        rng, site = self.rng, self.site
        kind = rng.randrange(5)
        if kind == 0:
            return _block(f"Missing{rng.randrange(100)}.php", UNKNOWN_REQUEST)
        if kind == 1:
            return _block(rng.choice(site.pages(role)), SESSION_FLAG_MISMATCH, cookie=False)
        if kind == 2:
            return _block(rng.choice(self.other_pages[role]), ROLE_MISMATCH)
        if kind == 3:
            off_path = [p for p in site.pages(role) if p not in site.edges[role].get(page, ())]
            return _block(rng.choice(off_path), SEQUENCE_VIOLATION)
        return _block(HOME, IDENTITY_MISMATCH, who=1)


def script_text(walks: list[Walk]) -> str:
    """Canonical text form of a traffic script, for determinism checks."""
    return "\n".join(json.dumps([w.identities, [s.__dict__ for s in w.steps]], sort_keys=True)
                     for w in walks) + "\n"


# -- the large site's upstream and trainer ----------------------------------------


def _serve(args) -> int:
    import threading
    from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
    from urllib.parse import parse_qs

    site = large_site(args.seed)
    users = {user: (password, role) for role, (user, password) in site.users.items()}
    sessions: dict[str, str] = {}
    lock = threading.Lock()
    rng = random.Random(args.seed)

    class Handler(BaseHTTPRequestHandler):
        def log_message(self, format, *a):  # noqa: A002 - stdlib signature
            pass

        def _page(self) -> str:
            return self.path.split("?", 1)[0].rsplit("/", 1)[-1] or "index.php"

        def _send(self, status: int, title: str, body: str, extra=()):
            content = (f"<html><head><title>{title}</title></head>"
                       f"<body><h1>{title}</h1>\n{body}\n</body></html>").encode()
            self.send_response(status)
            self.send_header("Content-Type", "text/html")
            self.send_header("Content-Length", str(len(content)))
            for name, value in extra:
                self.send_header(name, value)
            self.end_headers()
            self.wfile.write(content)

        def _redirect(self, location: str, extra=()):
            self.send_response(302)
            self.send_header("Location", location)
            self.send_header("Content-Length", "0")
            for name, value in extra:
                self.send_header(name, value)
            self.end_headers()

        def do_GET(self):
            page = self._page()
            if page == "index.php":
                links = "\n".join(f'<p><a href="{p}">{p}</a></p>' for p in site.public)
                self._send(200, page, links)
            elif page == LOGIN:
                self._send(200, page, '<form method="post" action="Login.php">'
                                      '<input name="username"><input name="password"></form>')
            elif page in site.public:
                self._send(200, page, "<p>public page</p>")
            else:
                cookie = self.headers.get("Cookie", "").partition(f"{COOKIE}=")[2].split(";")[0]
                with lock:
                    known = cookie in sessions
                if not known:
                    self._redirect("/Login.php")
                else:
                    self._send(200, page, f'<p><a href="{HOME}">{HOME}</a></p>')

        def do_POST(self):
            length = int(self.headers.get("Content-Length", "0") or 0)
            form = parse_qs(self.rfile.read(length).decode("latin-1"))
            user = (form.get("username") or [""])[0]
            password = (form.get("password") or [""])[0]
            known = users.get(user)
            if self._page() != LOGIN or known is None or known[0] != password:
                self._send(200, LOGIN, "<p>Login failed.</p>")
                return
            with lock:
                cookie = f"{rng.getrandbits(64):016x}"
                sessions[cookie] = user
            self._redirect(f"/{HOME}", [("Set-Cookie", f"{COOKIE}={cookie}; Path=/")])

    server = ThreadingHTTPServer(("127.0.0.1", args.port), Handler)
    server.daemon_threads = True
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


def _train(args) -> int:
    """Record every role's trails into the store, one exchange per page,
    as the crawler's client would have sent them."""
    from spans import Recorder
    from phpwarden.profile_store import ProfileStore

    recorder = Recorder(args.spans)
    if args.spans:
        ProfileStore.record_exchange = recorder.wrap("profile_store.record_exchange",
                                                     ProfileStore.record_exchange)
    site = large_site(args.seed)
    store = ProfileStore(args.store)
    for role, trails in site.trails.items():
        cookie = f"{COOKIE}=trainer{role}"
        for trail in trails:
            store.begin_trail(role)
            for page in trail:
                store.record_exchange(f"GET /{page} HTTP/1.1\r\nHost: {args.host}\r\n"
                                      f"User-Agent: {TRAINER_UA}\r\nCookie: {cookie}\r\n\r\n", role)
    recorder.save()
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("serve", help="serve the large site on 127.0.0.1:PORT")
    p.add_argument("--port", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=_serve)
    p = sub.add_parser("train", help="record the large site's role trails into a store")
    p.add_argument("--store", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--host", required=True, help="Host header value, host:port")
    p.add_argument("--spans", help="write trace spans to this file")
    p.set_defaults(func=_train)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
