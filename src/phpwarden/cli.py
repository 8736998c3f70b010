"""Command-line entry point.

Exit codes: 0 success; 1 when the subcommand found what it guards against
(vulnerabilities, misconfigurations, failed scenarios); 2 usage errors.
A command raises rather than prints what stops it, and main alone turns
that into a message and an exit code: `<command>: <message>` on stderr and
exit 2 for a UsageError, exit 1 for an OSError or ValueError (an input it
cannot read, an output it cannot write, an address it cannot use).  Any
other exception is a bug and keeps its traceback.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import __version__


class UsageError(Exception):
    """The command line asks for something the command cannot do: exit 2."""


# Each command imports the modules it runs inside its own function, so a
# process loads only what its command uses: a scan loads neither the training
# and model layers nor xml.etree and csv, the gate's commands (serve-demo,
# train, build-model, enforce) load no scanner, and only enforce, the one
# command that logs, loads logging.  No phpwarden module imports dataclasses
# (which loads inspect, ast, dis and tokenize), typing or importlib.resources:
# value types are namedtuples and __slots__ classes, and the checklist and
# policy are read from beside their modules.  These hooks import on first
# call and stay module globals, which perfbench/spans.py replaces to time them.
def write_report(*args, **kwargs):
    from .report import write_report
    return write_report(*args, **kwargs)


def crawl(*args, **kwargs):
    from .crawler import crawl
    return crawl(*args, **kwargs)


def build_model(*args, **kwargs):
    from .models import build_model
    return build_model(*args, **kwargs)


def load_model(*args, **kwargs):
    from .models import load_model
    return load_model(*args, **kwargs)


def _session_cookie(args) -> str:
    from .http1 import SESSION_COOKIE  # imported here: a scan loads no http1
    return SESSION_COOKIE if args.session_cookie is None else args.session_cookie


def _parse_addr(text: str, default_host: str = "127.0.0.1") -> tuple[str, int]:
    host, _, port = text.rpartition(":")
    if not port.isdigit():
        raise argparse.ArgumentTypeError(f"address must be host:port, got {text!r}")
    return (host or default_host, int(port))


def _load_checklist_arg(value: str):
    from .checklist import default_checklist, load_checklist

    if value == "default":
        return default_checklist()
    return load_checklist(Path(value).read_text())


def _load_policy_arg(value: str):
    from .config_audit import default_policy, load_policy

    if value == "default":
        return default_policy()
    return load_policy(Path(value).read_text())


def _audit_ini(ini: str, policy: str):
    """Misconfigurations of the php.ini at path ini under policy (a path,
    or 'default'), each line the ini parser skipped noted on stderr.  An
    unreadable file raises OSError or ValueError."""
    from .config_audit import audit, parse_ini

    settings = parse_ini(Path(ini).read_text())
    for diag in settings.diagnostics:
        print(f"note: {ini}: {diag}", file=sys.stderr)
    return audit(settings, _load_policy_arg(policy))


def _cmd_scan(args) -> int:
    from .checklist import ChecklistError
    from .report import build_report, render
    from .scanner import scan_project

    if not Path(args.root).is_dir():
        raise UsageError(f"--root {args.root} is not a directory")
    try:
        checklist = _load_checklist_arg(args.checklist)
    except (ChecklistError, OSError) as exc:
        print(f"checklist: {exc}", file=sys.stderr)
        return 1
    misconfigs = _audit_ini(args.ini, args.policy) if args.ini else []
    result = scan_project(args.root, checklist)
    app_name = args.app_name or os.path.basename(os.path.abspath(args.root))
    report = build_report(result, misconfigs, app_name)
    text = render(report)
    print(text)
    for diag in result.diagnostics:
        print(f"note: {diag}", file=sys.stderr)
    if args.out:
        text_path, data_path = write_report(report, args.out, text)
        print(f"written: {text_path}, {data_path}", file=sys.stderr)
    return 1 if (report.findings or report.misconfigurations) else 0


def _cmd_audit(args) -> int:
    misconfigs = _audit_ini(args.ini, args.policy)
    if not misconfigs:
        print("No misconfigurations detected.")
        return 0
    for m in misconfigs:
        print(f"{m.name} = {m.current} (recommended: {m.recommended}) - {m.rationale}")
    return 1


def _cmd_report(args) -> int:
    from .report import parse_structured, render

    print(render(parse_structured(Path(args.data).read_text())))
    return 0


def _cmd_train(args) -> int:
    from .profile_store import ProfileStore, check_role

    try:
        check_role(args.role)
    except ValueError as exc:
        raise UsageError(exc)
    credentials = None
    if args.login_user or args.login_pass:
        if not (args.login_user and args.login_pass):
            raise UsageError("--login-user and --login-pass go together")
        credentials = (args.login_user, args.login_pass)
    store = ProfileStore(args.store, session_cookie_name=_session_cookie(args))
    try:
        store.check_role(args.role)  # and its length, which the store's file system bounds
    except ValueError as exc:
        raise UsageError(exc)
    visited = crawl(args.base, args.role, credentials, store)
    print(f"role {args.role}: visited {len(visited)} pages, "
          f"{len(store.recorded_ids())} exchanges in store")
    for page in visited:
        print(f"  {page}")
    return 0


def _cmd_build_model(args) -> int:
    from .models import persist_model
    from .profile_store import ProfileStore

    if not Path(args.store).is_dir():
        raise FileNotFoundError(f"no store directory at {args.store}")
    model1, model2 = build_model(ProfileStore(args.store))
    persist_model(model1, model2, args.out)
    roles = ", ".join(model2.entries) or "none"
    print(f"{len(model1.rows)} rows ({len(model1.triples())} distinct), roles: {roles}")
    print(f"models written to {args.out}")
    return 0


def _cmd_enforce(args) -> int:
    import logging

    from .enforcer import DeviationLog, Enforcer, EnforcerConfig, load_bindings
    from .proxy import EnforcementProxy, UnresolvedUpstream

    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    model1, model2 = load_model(args.models)
    bindings = load_bindings(Path(args.bindings).read_text())
    log = DeviationLog(args.log)
    config = EnforcerConfig(
        session_cookie_name=_session_cookie(args),
        idle_timeout=args.idle_timeout,
    )
    enforcer = Enforcer(model1, model2, bindings, log, config)
    try:
        proxy = EnforcementProxy(args.listen, args.upstream, enforcer)
    except OSError as exc:
        log.close()
        if isinstance(exc, UnresolvedUpstream):
            raise OSError(f"cannot resolve upstream {args.upstream[0]}:{args.upstream[1]}: {exc}")
        raise OSError(f"cannot listen on {args.listen[0]}:{args.listen[1]}: {exc}")
    print(f"enforcing on {args.listen[0]}:{args.listen[1]} -> "
          f"upstream {args.upstream[0]}:{args.upstream[1]}; deviations: {args.log}")
    try:
        proxy.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        proxy.server_close()
        log.close()
    return 0


def _cmd_serve_demo(args) -> int:
    from .demoapp import DemoApp

    try:
        app = DemoApp(args.listen, seed=args.seed)
    except OSError as exc:
        raise OSError(f"cannot listen on {args.listen[0]}:{args.listen[1]}: {exc}")
    print(f"demo app on http://{args.listen[0]}:{app.server_address[1]}/ (seed {args.seed})")
    try:
        app.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        app.server_close()
    return 0


def _cmd_scenario(args) -> int:
    from .scenarios import BUILTIN_SCENARIOS, ScenarioError, run_scenario

    if args.list:
        for name in BUILTIN_SCENARIOS:
            print(name)
        return 0
    if args.enforcer is None:
        raise UsageError("--enforcer is required unless --list")
    if bool(args.name) == bool(args.file):
        raise UsageError("give exactly one of --name or --file")
    if args.name:
        script = BUILTIN_SCENARIOS.get(args.name)
        if script is None:
            raise UsageError(f"unknown scenario {args.name!r} (see --list)")
        title = args.name
    else:
        script = Path(args.file).read_text()
        title = Path(args.file).name
    try:
        result = run_scenario(script, args.enforcer, name=title)
    except ScenarioError as exc:
        raise UsageError(exc)
    for line in result.transcript:
        print(line)
    return 0 if result.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phpwarden",
        description="Static PHP vulnerability scanning plus trained runtime request enforcement.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("scan", help="scan a PHP source tree for vulnerable data flows")
    p.add_argument("--root", required=True, help="directory to scan recursively")
    p.add_argument("--checklist", default="default", help="checklist file path, or 'default'")
    p.add_argument("--ini", help="php.ini to audit into the same report")
    p.add_argument("--policy", default="default", help="hardening policy path, or 'default'")
    p.add_argument("--app-name", help="application name for the report header")
    p.add_argument("--out", help="write the report (text and structured) to this path")
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("audit", help="check a php.ini against the hardening policy")
    p.add_argument("--ini", required=True)
    p.add_argument("--policy", default="default")
    p.set_defaults(func=_cmd_audit)

    p = sub.add_parser("report", help="render a previously written structured report")
    p.add_argument("--data", required=True, help="path to the .data structured report")
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("train", help="crawl the target app as one role, recording traffic")
    p.add_argument("--role", required=True, help="role id; 0 is the unauthenticated crawl")
    p.add_argument("--base", required=True, help="target base url, e.g. http://127.0.0.1:8008")
    p.add_argument("--store", required=True, help="profile store directory")
    p.add_argument("--login-user")
    p.add_argument("--login-pass")
    p.add_argument("--session-cookie")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("build-model", help="build and persist models from a profile store")
    p.add_argument("--store", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_build_model)

    p = sub.add_parser("enforce", help="run the enforcement proxy")
    p.add_argument("--models", required=True, help="directory written by build-model")
    p.add_argument("--listen", required=True, type=_parse_addr)
    p.add_argument("--upstream", required=True, type=_parse_addr)
    p.add_argument("--bindings", required=True, help="file of username,role lines")
    p.add_argument("--session-cookie")
    p.add_argument("--idle-timeout", type=float, default=1800.0)
    p.add_argument("--log", default="deviations.log", help="deviation log path")
    p.set_defaults(func=_cmd_enforce)

    p = sub.add_parser("serve-demo", help="run the built-in two-role demo app")
    p.add_argument("--listen", default=("127.0.0.1", 8008), type=_parse_addr)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_serve_demo)

    p = sub.add_parser("scenario", help="run a scripted scenario against a running enforcer")
    p.add_argument("--enforcer", type=_parse_addr, help="proxy address host:port")
    p.add_argument("--name", help="built-in scenario name")
    p.add_argument("--file", help="scenario script path")
    p.add_argument("--list", action="store_true", help="list built-in scenarios")
    p.set_defaults(func=_cmd_scenario)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, OSError, ValueError) as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, UsageError) else 1


if __name__ == "__main__":
    sys.exit(main())
