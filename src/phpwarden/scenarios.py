"""Scripted end-to-end scenarios against a running enforcement proxy.

Scenario scripts are line-oriented; blank lines and # comments are
ignored.  Directives:

    client <name> <user-agent>
        Define a client.  Each client is a distinct (ip, user-agent)
        identity as the proxy sees it (same ip, distinct agent).
    login <client> <username> <password>
        POST the login form through the proxy; must be forwarded, and be
        answered by a redirect setting a session cookie, which the client keeps.
    logout <client>
        Fetch the logout page through the proxy (no assertion).
    request <client> <METHOD> <path> [expect=block|don't_block] [reason=a|b]
        Send a request.  With expect=, the observed verdict must match;
        reason= narrows a block to the given alternatives.
    steal <victim> <thief>
        The thief client starts presenting the victim's session cookie.

A step whose assertion fails marks the scenario failed; execution
continues so the transcript shows the whole picture.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .crawler import log_in, send_request
from .http1 import LOGIN_FIELDS, LOGOUT_PAGE, parse_header_block
from .profile_store import ProfileStore


class ScenarioError(ValueError):
    """Malformed scenario script."""


def _tokenize(line: str) -> list[str]:
    """Whitespace-separated words; double quotes group.  Single quotes are
    ordinary characters (verdict literals contain apostrophes)."""
    words: list[str] = []
    current: list[str] = []
    in_quote = False
    for ch in line:
        if ch == '"':
            in_quote = not in_quote
        elif ch.isspace() and not in_quote:
            if current:
                words.append("".join(current))
                current = []
        else:
            current.append(ch)
    if in_quote:
        raise ValueError("unclosed double quote")
    if current:
        words.append("".join(current))
    return words


@dataclass
class ScenarioResult:
    name: str
    passed: bool
    transcript: list[str] = field(default_factory=list)


@dataclass
class _Client:
    user_agent: str
    cookie: str | None = None


def _reason(headers) -> str | None:
    """The deviation reason a response from the proxy names, else None."""
    return next((v for k, v in headers if k.lower() == "x-deviation-reason"), None)


def run_scenario(script: str, enforcer_addr: tuple[str, int], name: str = "scenario") -> ScenarioResult:
    clients: dict[str, _Client] = {}
    result = ScenarioResult(name=name, passed=True)

    def say(line: str) -> None:
        result.transcript.append(line)

    def fail(lineno: int, message: str) -> None:
        result.passed = False
        say(f"FAIL line {lineno}: {message}")

    for lineno, raw in enumerate(script.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            words = _tokenize(line)
        except ValueError as exc:
            raise ScenarioError(f"line {lineno}: {exc}") from None
        directive, args = words[0], words[1:]

        if directive == "client":
            if len(args) != 2:
                raise ScenarioError(f"line {lineno}: client <name> <user-agent>")
            clients[args[0]] = _Client(user_agent=args[1])
            say(f"client {args[0]} ({args[1]})")
            continue

        if directive == "steal":
            if len(args) != 2 or args[0] not in clients or args[1] not in clients:
                raise ScenarioError(f"line {lineno}: steal <victim> <thief> (both defined)")
            clients[args[1]].cookie = clients[args[0]].cookie
            say(f"{args[1]} now presents {args[0]}'s session cookie")
            continue

        if directive == "login":
            if len(args) != 3 or args[0] not in clients:
                raise ScenarioError(f"line {lineno}: login <client> <username> <password>")
            client = clients[args[0]]
            try:
                status, headers, cookie = log_in(enforcer_addr, client.user_agent, args[1], args[2],
                                                 client.cookie)
            except (OSError, ValueError) as exc:
                fail(lineno, f"no usable response: {exc}")
                continue
            reason = _reason(headers)
            if reason is not None:
                fail(lineno, f"login blocked ({reason})")
                continue
            if cookie is None:
                fail(lineno, f"login as {args[1]} got no session cookie (status {status})")
                continue
            client.cookie = cookie
            say(f"{args[0]} logged in as {args[1]}")
            continue

        if directive == "logout":
            if len(args) != 1 or args[0] not in clients:
                raise ScenarioError(f"line {lineno}: logout <client>")
            client = clients[args[0]]
            try:
                send_request(enforcer_addr, "GET", f"/{LOGOUT_PAGE}", client.user_agent, client.cookie)
            except (OSError, ValueError) as exc:
                fail(lineno, f"no usable response: {exc}")
                continue
            client.cookie = None
            say(f"{args[0]} logged out")
            continue

        if directive == "request":
            if len(args) < 3 or args[0] not in clients:
                raise ScenarioError(f"line {lineno}: request <client> <METHOD> <path> [expect=...] [reason=...]")
            client = clients[args[0]]
            method, path = args[1].upper(), args[2]
            expect = None
            reasons = None
            for option in args[3:]:
                key, _, value = option.partition("=")
                if key == "expect" and value in ("block", "don't_block"):
                    expect = value
                elif key == "reason":
                    reasons = value.split("|")
                else:
                    raise ScenarioError(f"line {lineno}: bad option {option!r}")
            try:
                status, headers, _, _ = send_request(enforcer_addr, method, path, client.user_agent, client.cookie)
            except (OSError, ValueError) as exc:
                fail(lineno, f"no usable response: {exc}")
                continue
            reason = _reason(headers)
            observed = "block" if reason is not None else "don't_block"
            note = f"{args[0]} {method} {path} -> {observed}" + (f" ({reason})" if reason else f" [{status}]")
            if expect is not None and observed != expect:
                fail(lineno, f"{note}, expected {expect}")
                continue
            if expect == "block" and reasons is not None and reason not in reasons:
                fail(lineno, f"{note}, expected reason {'|'.join(reasons)}")
                continue
            say(note)
            continue

        raise ScenarioError(f"line {lineno}: unknown directive {directive!r}")

    say(("PASS" if result.passed else "FAIL") + f" {name}")
    return result


BUILTIN_SCENARIOS: dict[str, str] = {
    "auth-bypass": """\
# session page pulled without ever logging in
client eve "eve-browser/auth-bypass"
request eve GET /Home.php expect=block reason=session_flag_mismatch
""",
    "privilege-escalation": """\
# employer reaches for a manager-only page
client emp "employer-browser/priv-esc"
login emp emma evergreen
request emp GET /Home.php expect=don't_block
request emp GET /User_mgmt.php expect=block reason=role_mismatch|unknown_page_for_role
""",
    "sequence-bypass": """\
# manager jumps straight to a page only reachable via View.php
client mgr "manager-browser/seq-bypass"
login mgr mark maplesyrup
request mgr GET /Home.php expect=don't_block
request mgr GET /Viewusers.php expect=block reason=sequence_violation
""",
    "session-hijack": """\
# stolen cookie replayed from a different identity
client mgr "manager-browser/hijack-victim"
client thief "thief-browser/hijack"
login mgr mark maplesyrup
request mgr GET /Home.php expect=don't_block
steal mgr thief
request thief GET /View.php expect=block reason=identity_mismatch
""",
    "happy-manager": """\
client mgr "manager-browser/happy"
login mgr mark maplesyrup
request mgr GET /Home.php expect=don't_block
request mgr GET /View.php expect=don't_block
request mgr GET /Viewusers.php expect=don't_block
""",
    "happy-employer": """\
client emp "employer-browser/happy"
login emp emma evergreen
request emp GET /Home.php expect=don't_block
request emp GET /Work_report.php expect=don't_block
""",
}


def replay_training(
    store: ProfileStore,
    enforcer_addr: tuple[str, int],
    credentials_by_role: dict[str, tuple[str, str]],
) -> tuple[int, int]:
    """Replay every recorded trail through the proxy and count blocks.

    Each trail runs as a fresh client identity so its page history starts
    clean, exactly as in training.  Authenticated trails are preceded by a
    login with that role's credentials (training obtained its session the
    same way, out of band), and replayed requests that were recorded with
    a session flag present the fresh cookie.  Returns (blocks, total
    replayed requests), login preambles included in both counts.
    """
    blocks = 0
    total = 0
    for index, (role, records) in enumerate(store.trail_records()):
        agent = f"training-replay/{index}.{role}"
        cookie = None
        if role != "0":
            username, password = credentials_by_role[role]
            total += 1
            _, headers, cookie = log_in(enforcer_addr, agent, username, password,
                                        cookie_name=store.session_cookie_name)
            if _reason(headers) is not None:
                blocks += 1
                continue
        for _, raw, flag in records:
            head = parse_header_block(raw)
            # the only trained POST is the unauthenticated form probe
            form = dict.fromkeys(LOGIN_FIELDS, "") if head.method.upper() == "POST" else None
            total += 1
            _, headers, _, _ = send_request(
                enforcer_addr, head.method.upper(), head.target, agent,
                cookie=cookie if flag else None, form=form, cookie_name=store.session_cookie_name,
            )
            if _reason(headers) is not None:
                blocks += 1
    return blocks, total
