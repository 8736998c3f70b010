"""Runtime verification engine.

Every intercepted request passes three gates, cheapest suspicion first:

  identity  - a session cookie is pinned to the (ip, user-agent) pair that
              first presented it; any other client showing the same cookie
              is a hijack.
  level 1   - the (request id, session flag, role) triple must exist in
              the trained request relation, and the path must end at the
              script it names: one that goes on past a script segment
              (Secret.php/About.php, Secret.php/) is an unknown request,
              since the upstream would run Secret.php.
  level 2   - the page must be reachable for the client's role: an entry
              page when the client has no history, otherwise a trained
              transition from the previous page.  Asset fetches skip this
              gate and leave the page history untouched.

Verdicts are block / don't_block; exactly one deviation-log record is
written per blocked request, none for forwarded ones.

Both levels read indexes compiled once from the read-only models
(`RequestModel.roles_by_request`, `NavigationModel.nodes_by_role`), so a
verdict is a few dict and set lookups however large the trained model is.
The Enforcer compiles them when it is built, before the first request.

The Enforcer is the one owner of session state (each client's role, last
page and idle reset, and the cookie pins, under one lock) and of the rule
that reads a login or logout response for it: see note_response.
"""

from __future__ import annotations

import logging
import threading
import time
from collections import namedtuple
from datetime import datetime

from .models import NavigationModel, RequestModel, is_asset
from .http1 import (LOGIN_PAGE, LOGOUT_PAGE, SESSION_COOKIE, goes_past_script, login_succeeded,
                    parse_header_block, read_login_form, request_key)

logger = logging.getLogger(__name__)

BLOCK = "block"
DONT_BLOCK = "don't_block"

OK = "ok"
UNKNOWN_REQUEST = "unknown_request"
SESSION_FLAG_MISMATCH = "session_flag_mismatch"
ROLE_MISMATCH = "role_mismatch"
UNKNOWN_PAGE_FOR_ROLE = "unknown_page_for_role"
SEQUENCE_VIOLATION = "sequence_violation"
IDENTITY_MISMATCH = "identity_mismatch"

# which verification stage each block reason belongs to, for the log
LEVEL_FOR_REASON = {
    UNKNOWN_REQUEST: "1",
    SESSION_FLAG_MISMATCH: "1",
    ROLE_MISMATCH: "1",
    UNKNOWN_PAGE_FOR_ROLE: "2",
    SEQUENCE_VIOLATION: "2",
    IDENTITY_MISMATCH: "identity",
}


class Verdict(namedtuple("Verdict", "reason detail head key", defaults=("", None, None))):
    """OK or a block reason, with a detail for the log; the status follows
    from the reason.  head and key are the RequestHead evaluate() parsed
    and the http1.RequestKey it made (None if it could not parse), so no
    caller parses or keys a request twice; equality and hashing ignore them."""

    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self[:2] == other[:2]

    def __ne__(self, other):  # tuple's own would compare head and key too
        return not self == other

    def __hash__(self):
        return hash(self[:2])

    @property
    def blocked(self) -> bool:
        return self.reason != OK

    @property
    def status(self) -> str:
        return BLOCK if self.blocked else DONT_BLOCK

    @classmethod
    def ok(cls) -> "Verdict":
        """The one shared passing verdict."""
        return _OK

    @classmethod
    def block(cls, reason: str, detail: str = "") -> "Verdict":
        return cls(reason, detail)


_OK = Verdict(OK)


def verify_level1(reqres_id: str, session_flag: int, role: str, model1: RequestModel) -> Verdict:
    """Membership of (reqres_id, flag, role) in the deduplicated trained
    relation, with the block reason naming the nearest miss: id never seen
    at all, id never seen with this flag, or combination trained only for
    other roles."""
    flags = model1.roles_by_request.get(reqres_id)
    if flags is None:
        return Verdict.block(UNKNOWN_REQUEST, f"{reqres_id} not in trained model")
    roles = flags.get(session_flag)
    if roles is None:
        return Verdict.block(
            SESSION_FLAG_MISMATCH,
            f"{reqres_id} trained only with session flag {', '.join(str(f) for f in sorted(flags))}",
        )
    if role in roles:
        return Verdict.ok()
    return Verdict.block(ROLE_MISMATCH, f"{reqres_id} trained for role {', '.join(sorted(roles))}, not {role}")


def verify_level2(page: str, role: str, last_page: str | None, model2: NavigationModel) -> Verdict:
    """Graph membership: entry page when no history, trained edge otherwise."""
    nodes = model2.nodes_by_role.get(role)
    if nodes is None or page not in nodes:
        return Verdict.block(UNKNOWN_PAGE_FOR_ROLE, f"{page} is not a page of role {role}")
    if last_page is None:
        if model2.is_entry(role, page):
            return Verdict.ok()
        return Verdict.block(SEQUENCE_VIOLATION, f"{page} is not an entry page for role {role}")
    if model2.has_edge(role, last_page, page):
        return Verdict.ok()
    return Verdict.block(SEQUENCE_VIOLATION, f"no trained transition {last_page} -> {page} for role {role}")


def verify_request(
    reqres_id: str,
    page: str,
    session_flag: int,
    role: str,
    last_page: str | None,
    model1: RequestModel,
    model2: NavigationModel,
) -> Verdict:
    """The stateless composition of both levels, as applied to one request.
    The Enforcer wraps this with identity checking and state upkeep."""
    verdict = verify_level1(reqres_id, session_flag, role, model1)
    if verdict.blocked:
        return verdict
    if is_asset(page):
        return verdict
    return verify_level2(page, role, last_page, model2)


# -- per-client state --------------------------------------------------------


# whose session state a request reads: who presents it
ClientIdentity = namedtuple("ClientIdentity", "ip user_agent")


class ClientState:
    """One client's role, last page and the time it was last seen; changed
    only under the Enforcer's lock."""

    __slots__ = ("role", "last_page", "last_seen")

    def __init__(self, last_seen: float):
        self.role = "0"
        self.last_page: str | None = None
        self.last_seen = last_seen


def load_bindings(text: str) -> dict[str, str]:
    """`username,role` per line, neither empty; blank lines and # comments
    allowed."""
    bindings: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        username, comma, role = (part.strip() for part in line.partition(","))
        if not (comma and username and role):
            raise ValueError(f"bindings line {lineno}: expected username,role, neither empty")
        bindings[username] = role
    return bindings


# -- deviation log -----------------------------------------------------------


class DeviationLog:
    """Append-only, line-oriented, tab-separated:
    timestamp, identity, request id text, level, reason, detail.

    The file is opened once, for appending with line buffering, so each
    record is on disk when record() returns; close() releases it."""

    def __init__(self, path: str):
        self.path = path
        self._lock = threading.Lock()
        self._fh = open(path, "a", encoding="utf-8", buffering=1)

    def record(self, timestamp: float, identity: ClientIdentity, request_text: str,
               level: str, reason: str, detail: str) -> None:
        fields = [
            datetime.fromtimestamp(timestamp).isoformat(),
            f"{identity.ip} {identity.user_agent}",
            request_text,
            level,
            reason,
            detail,
        ]
        line = "\t".join(f.replace("\t", " ").replace("\n", " ").replace("\r", " ") for f in fields)
        with self._lock:
            self._fh.write(line + "\n")

    def close(self) -> None:
        with self._lock:
            self._fh.close()


# -- the engine ---------------------------------------------------------------


EnforcerConfig = namedtuple("EnforcerConfig", "session_cookie_name idle_timeout",
                            defaults=(SESSION_COOKIE, 1800.0))


class Enforcer:
    """Stateful verifier and session owner; writes the deviation log.
    evaluate() is the one entry point on the request path, and
    note_response() reads each passed request's final response head."""

    def __init__(
        self,
        model1: RequestModel,
        model2: NavigationModel,
        bindings: dict[str, str],
        deviation_log: DeviationLog | None = None,
        config: EnforcerConfig | None = None,
        clock=time.time,
    ):
        self.model1 = model1
        self.model2 = model2
        # compile the verifier's indexes now, not on the first request
        model1.roles_by_request
        model2.nodes_by_role
        self.bindings = bindings
        self.log = deviation_log
        self.config = config or EnforcerConfig()
        self.clock = clock
        # held from _state_for through the update of the state it returns,
        # so two requests of one client never interleave read-verify-update
        self._lock = threading.Lock()
        self._clients: dict[ClientIdentity, ClientState] = {}
        self._cookie_owners: dict[str, ClientIdentity] = {}
        self.blocked_count = 0

    def _state_for(self, identity: ClientIdentity, now: float) -> ClientState:
        """identity's state, seen at now; one idle past the timeout falls
        back to role 0 with no page history.  The caller holds _lock."""
        state = self._clients.get(identity)
        if state is None:
            state = self._clients[identity] = ClientState(now)
        elif now - state.last_seen > self.config.idle_timeout:
            state.role = "0"
            state.last_page = None
        state.last_seen = now
        return state

    def _record_block(self, identity: ClientIdentity, request_text: str, verdict: Verdict) -> None:
        with self._lock:
            self.blocked_count += 1
        if self.log is not None:
            self.log.record(
                self.clock(), identity, request_text,
                LEVEL_FOR_REASON[verdict.reason], verdict.reason, verdict.detail,
            )

    def evaluate(self, raw_head: str, client_ip: str) -> Verdict:
        """Verdict, carrying the head and key, for one raw request head from
        client_ip.  Updates client state on success; logs exactly once on block."""
        now = self.clock()
        try:
            head = parse_header_block(raw_head)
        except ValueError as exc:
            identity = ClientIdentity(client_ip, "")
            first_line = raw_head.split("\n", 1)[0].strip()
            verdict = Verdict.block(UNKNOWN_REQUEST, f"unparseable request: {exc}")
            self._record_block(identity, first_line or "<empty>", verdict)
            return verdict
        key = request_key(head, self.config.session_cookie_name)
        reqres_id, page, cookie, user_agent = key
        identity = ClientIdentity(client_ip, user_agent)

        with self._lock:
            state = self._state_for(identity, now)
            owner = identity if cookie is None else self._cookie_owners.setdefault(cookie, identity)
            if owner != identity:
                verdict = Verdict.block(IDENTITY_MISMATCH,
                                        f"session cookie pinned to {owner.ip} / {owner.user_agent}")
            elif goes_past_script(head.target):
                verdict = Verdict.block(UNKNOWN_REQUEST, f"{head.target} goes on past a script segment")
            else:
                verdict = verify_request(
                    reqres_id, page, int(cookie is not None), state.role, state.last_page,
                    self.model1, self.model2,
                )
                if not verdict.blocked and not is_asset(page):
                    state.last_page = page
        if verdict.blocked:
            self._record_block(identity, reqres_id, verdict)
        return Verdict(verdict.reason, verdict.detail, head, key)

    def note_response(self, client_ip: str, verdict: Verdict, body: bytes, status: int,
                      fields: list[tuple[str, str]]) -> None:
        """Apply the session rule to the final response head of the request
        evaluate() passed with verdict, before the client gets a byte of it,
        so its next request cannot race it: a logout clears the client's role,
        and a login (a POST of the form in body, answered by a redirect that
        sets the session cookie: http1.login_succeeded) binds its user's role."""
        _, page, _, user_agent = verdict.key  # the identity evaluate checked
        if page == LOGOUT_PAGE:
            self.note_logout(client_ip, user_agent)
        elif page == LOGIN_PAGE and verdict.head.method.upper() == "POST":
            cookie = login_succeeded(status, fields, self.config.session_cookie_name)
            if cookie:
                username, _ = read_login_form(body.decode("latin-1"))
                self.note_login(client_ip, user_agent, username, cookie)

    def note_login(self, client_ip: str, user_agent: str, username: str, session_cookie: str) -> None:
        """Bind username's role (role 0, with a warning but no deviation, for
        an unknown username), pin the fresh cookie to the client, and clear
        its page history so the session starts from an entry page."""
        role = self.bindings.get(username)
        if role is None:
            logger.warning("login by unknown username %r: treating as role 0", username)
            role = "0"
        identity = ClientIdentity(client_ip, user_agent)
        with self._lock:
            state = self._state_for(identity, self.clock())
            state.role = role
            state.last_page = None
            self._cookie_owners[session_cookie] = identity

    def note_logout(self, client_ip: str, user_agent: str) -> None:
        identity = ClientIdentity(client_ip, user_agent)
        with self._lock:
            state = self._state_for(identity, self.clock())
            state.role = "0"
            state.last_page = None
