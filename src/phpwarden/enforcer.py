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
"""

from __future__ import annotations

import logging
import threading
import time
from collections import namedtuple
from datetime import datetime

from .models import NavigationModel, RequestModel, is_asset
from .http1 import SESSION_COOKIE, RequestHead, goes_past_script, parse_header_block, request_key

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


class Verdict(namedtuple("Verdict", "status reason detail head")):
    """status and reason, with a detail for the log.  head is the
    RequestHead evaluate() parsed (None if it did not), so no caller parses
    it twice; equality and hashing ignore it."""

    __slots__ = ()

    def __new__(cls, status: str, reason: str, detail: str = "", head: RequestHead | None = None):
        if (status == DONT_BLOCK) != (reason == OK):
            raise ValueError(f"inconsistent verdict: {status}/{reason}")
        return tuple.__new__(cls, (status, reason, detail, head))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self[:3] == other[:3]

    def __ne__(self, other):  # tuple's own would compare head too
        return not self == other

    def __hash__(self):
        return hash(self[:3])

    @property
    def blocked(self) -> bool:
        return self.status == BLOCK

    @classmethod
    def ok(cls) -> "Verdict":
        """The one shared passing verdict."""
        return _OK

    @classmethod
    def block(cls, reason: str, detail: str = "") -> "Verdict":
        return cls(BLOCK, reason, detail)


_OK = Verdict(DONT_BLOCK, OK)


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


# a client-table key: who presents a request
ClientIdentity = namedtuple("ClientIdentity", "ip user_agent")


class ClientState:
    """One client's role, last page and the time it was last seen; changed
    only under ClientTable.lock."""

    __slots__ = ("identity", "role", "last_page", "last_seen")

    def __init__(self, identity: ClientIdentity, role: str = "0", last_page: str | None = None,
                 last_seen: float = 0.0):
        self.identity = identity
        self.role = role
        self.last_page = last_page
        self.last_seen = last_seen


class ClientTable:
    """Shared client-state map.  Cookie ownership pins on first sighting;
    idle clients fall back to role 0 after the timeout.  Every method
    expects the caller to hold `lock`, from state_for through the update of
    the state it returns, so that two requests of one client never
    interleave their read-verify-update."""

    def __init__(self, idle_timeout: float = 1800.0):
        self.idle_timeout = idle_timeout
        self._states: dict[ClientIdentity, ClientState] = {}
        self._cookie_owner: dict[str, ClientIdentity] = {}
        self.lock = threading.Lock()

    def state_for(self, identity: ClientIdentity, now: float) -> ClientState:
        state = self._states.get(identity)
        if state is None:
            state = ClientState(identity=identity, last_seen=now)
            self._states[identity] = state
        elif now - state.last_seen > self.idle_timeout:
            state.role = "0"
            state.last_page = None
        state.last_seen = now
        return state

    def cookie_owner(self, cookie: str, presenter: ClientIdentity) -> ClientIdentity:
        owner = self._cookie_owner.get(cookie)
        if owner is None:
            self._cookie_owner[cookie] = presenter
            return presenter
        return owner

    def pin_cookie(self, cookie: str, identity: ClientIdentity) -> None:
        self._cookie_owner[cookie] = identity


def resolve_role(state: ClientState, login_username: str | None, bindings: dict[str, str]) -> str:
    """Role after an optional login event: bindings decide, unknown users
    stay unauthenticated (and are logged, but not as a deviation)."""
    if login_username is None:
        return state.role
    role = bindings.get(login_username)
    if role is None:
        logger.warning("login by unknown username %r: treating as role 0", login_username)
        return "0"
    return role


def load_bindings(text: str) -> dict[str, str]:
    """`username,role` per line; blank lines and # comments allowed."""
    bindings: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "," not in line:
            raise ValueError(f"bindings line {lineno}: expected username,role")
        username, _, role = line.partition(",")
        bindings[username.strip()] = role.strip()
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
        line = "\t".join(f.replace("\t", " ").replace("\n", " ") for f in fields)
        with self._lock:
            self._fh.write(line + "\n")

    def close(self) -> None:
        with self._lock:
            self._fh.close()


# -- the engine ---------------------------------------------------------------


EnforcerConfig = namedtuple("EnforcerConfig", "session_cookie_name idle_timeout",
                            defaults=(SESSION_COOKIE, 1800.0))


class Enforcer:
    """Stateful verifier: owns the client table and writes the deviation
    log.  evaluate() is the one entry point on the request path; the proxy
    calls note_login/note_logout after relaying the matching responses."""

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
        self.table = ClientTable(idle_timeout=self.config.idle_timeout)
        self.blocked_count = 0
        self._count_lock = threading.Lock()

    def _record_block(self, identity: ClientIdentity, request_text: str, verdict: Verdict) -> None:
        with self._count_lock:
            self.blocked_count += 1
        if self.log is not None:
            self.log.record(
                self.clock(), identity, request_text,
                LEVEL_FOR_REASON[verdict.reason], verdict.reason, verdict.detail,
            )

    def evaluate(self, raw_head: str, client_ip: str) -> Verdict:
        """Verdict, carrying the parsed head, for one raw request head from
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
        reqres_id, page, cookie, user_agent = request_key(head, self.config.session_cookie_name)
        identity = ClientIdentity(client_ip, user_agent)

        table = self.table
        with table.lock:
            state = table.state_for(identity, now)
            owner = identity if cookie is None else table.cookie_owner(cookie, identity)
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
        return Verdict(verdict.status, verdict.reason, verdict.detail, head)

    def note_login(self, client_ip: str, user_agent: str, username: str, session_cookie: str) -> None:
        """Called after a successful login response was relayed: bind the
        role, pin the fresh cookie, and clear page history so the session
        starts from an entry page."""
        identity = ClientIdentity(client_ip, user_agent)
        with self.table.lock:
            state = self.table.state_for(identity, self.clock())
            state.role = resolve_role(state, username, self.bindings)
            state.last_page = None
            self.table.pin_cookie(session_cookie, identity)

    def note_logout(self, client_ip: str, user_agent: str) -> None:
        identity = ClientIdentity(client_ip, user_agent)
        with self.table.lock:
            state = self.table.state_for(identity, self.clock())
            state.role = "0"
            state.last_page = None
