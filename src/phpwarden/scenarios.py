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

import re

from .crawler import log_in, send_request
from .http1 import LOGIN_FIELDS, LOGOUT_PAGE, parse_header_block
from .profile_store import ProfileStore


class ScenarioError(ValueError):
    """Malformed scenario script."""


_WORD_RE = re.compile(r'(?:[^\s"]|"[^"]*")+')


def _tokenize(line: str) -> list[str]:
    """Whitespace-separated words; double quotes group.  Single quotes are
    ordinary characters (verdict literals contain apostrophes)."""
    if line.count('"') % 2:
        raise ValueError("unclosed double quote")
    return [word for match in _WORD_RE.finditer(line) if (word := match[0].replace('"', ""))]


class ScenarioResult:
    def __init__(self, name: str, passed: bool, transcript: list[str] | None = None) -> None:
        self.name, self.passed = name, passed
        self.transcript = [] if transcript is None else transcript


class _Client:
    def __init__(self, user_agent: str) -> None:
        self.user_agent, self.cookie = user_agent, None


def _reason(headers) -> str | None:
    """The deviation reason a response from the proxy names, else None."""
    return next((v for k, v in headers if k.lower() == "x-deviation-reason"), None)


# directive: its usage, how many arguments it takes (request takes options
# after them), and how many of the first ones must name a defined client
_DIRECTIVES = {
    "client": ("client <name> <user-agent>", 2, 0),
    "steal": ("steal <victim> <thief> (both defined)", 2, 2),
    "login": ("login <client> <username> <password>", 3, 1),
    "logout": ("logout <client>", 1, 1),
    "request": ("request <client> <METHOD> <path> [expect=...] [reason=...]", 3, 1),
}


def run_scenario(script: str, enforcer_addr: tuple[str, int], name: str = "scenario") -> ScenarioResult:
    clients: dict[str, _Client] = {}
    result = ScenarioResult(name, True)
    for lineno, raw in enumerate(script.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            directive, *args = _tokenize(line) or [""]
        except ValueError as exc:
            raise ScenarioError(f"line {lineno}: {exc}") from None
        if directive not in _DIRECTIVES:
            raise ScenarioError(f"line {lineno}: unknown directive {directive!r}")
        usage, count, named = _DIRECTIVES[directive]
        if (len(args) < count or len(args) > count and directive != "request"
                or any(arg not in clients for arg in args[:named])):
            raise ScenarioError(f"line {lineno}: {usage}")
        expect = reasons = None
        for option in args[3:]:
            key, _, value = option.partition("=")
            if key == "expect" and value in ("block", "don't_block"):
                expect = value
            elif key == "reason":
                reasons = value.split("|")
            else:
                raise ScenarioError(f"line {lineno}: bad option {option!r}")

        ok, client = True, clients.get(args[0])
        try:
            if directive == "client":
                clients[args[0]] = _Client(args[1])
                note = f"client {args[0]} ({args[1]})"
            elif directive == "steal":
                clients[args[1]].cookie = client.cookie
                note = f"{args[1]} now presents {args[0]}'s session cookie"
            elif directive == "login":
                status, headers, cookie = log_in(enforcer_addr, client.user_agent, args[1], args[2],
                                                 client.cookie)
                reason = _reason(headers)
                if reason is not None:
                    ok, note = False, f"login blocked ({reason})"
                elif cookie is None:
                    ok, note = False, f"login as {args[1]} got no session cookie (status {status})"
                else:
                    client.cookie, note = cookie, f"{args[0]} logged in as {args[1]}"
            elif directive == "logout":
                send_request(enforcer_addr, "GET", f"/{LOGOUT_PAGE}", client.user_agent, client.cookie)
                client.cookie, note = None, f"{args[0]} logged out"
            else:
                method, path = args[1].upper(), args[2]
                status, headers, _, _ = send_request(enforcer_addr, method, path, client.user_agent,
                                                     client.cookie)
                reason = _reason(headers)
                observed = "block" if reason is not None else "don't_block"
                note = f"{args[0]} {method} {path} -> {observed}" + (f" ({reason})" if reason else f" [{status}]")
                if expect is not None and observed != expect:
                    ok, note = False, f"{note}, expected {expect}"
                elif expect == "block" and reasons is not None and reason not in reasons:
                    ok, note = False, f"{note}, expected reason {'|'.join(reasons)}"
        except (OSError, ValueError) as exc:
            ok, note = False, f"no usable response: {exc}"
        result.passed = result.passed and ok
        result.transcript.append(note if ok else f"FAIL line {lineno}: {note}")

    result.transcript.append(("PASS" if result.passed else "FAIL") + f" {name}")
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
