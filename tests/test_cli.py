import errno
import importlib
import os
import re
import shutil
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

from phpwarden import __version__, cli, profile_store, proxy
from phpwarden.cli import main
from phpwarden.profile_store import ProfileStore
from phpwarden.scenarios import BUILTIN_SCENARIOS

REPO = Path(__file__).resolve().parent.parent
FIXTURES = REPO / "fixtures"


def _free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def _wait_port(port: int, timeout: float = 8.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            with socket.create_connection(("127.0.0.1", port), timeout=0.25):
                return
        except OSError:
            time.sleep(0.05)
    raise RuntimeError(f"nothing listening on 127.0.0.1:{port}")


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip() == f"phpwarden {__version__}"


def test_no_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_scan_bookstore_reports_both_categories(capsys):
    rc = main(["scan", "--root", str(FIXTURES / "bookstore")])
    out = capsys.readouterr().out
    assert rc == 1
    assert "VULNERABILITY DETAILS" in out
    assert "SQL Injection" in out
    assert "Cross-Site Scripting" in out
    assert "Application : bookstore" in out


def test_scan_clean_tree_exits_zero(tmp_path, capsys):
    (tmp_path / "ok.php").write_text("<?php echo 'static'; ?>\n")
    rc = main(["scan", "--root", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "No vulnerabilities detected." in out


def test_scan_latin1_file_with_superscript_digit(tmp_path, capsys):
    # 0xB2 is "²" in latin-1: str.isdigit() accepts it, PHP reads it as a
    # name byte; the scan must report, not crash
    root = tmp_path / "app"
    root.mkdir()
    (root / "sq.php").write_bytes(b"<?php\n$n = 2\xb2;\necho $_GET['q'] . \xb2;\n")
    out = tmp_path / "report.txt"
    rc = main(["scan", "--root", str(root), "--out", str(out)])
    assert rc == 1
    report = out.read_text(encoding="utf-8")
    assert "Cross-Site Scripting" in report
    assert "3: echo $_GET['q'] . \u00b2;" in report


def test_scan_app_name_override(tmp_path, capsys):
    (tmp_path / "ok.php").write_text("<?php echo 'static'; ?>\n")
    main(["scan", "--root", str(tmp_path), "--app-name", "storefront"])
    assert "Application : storefront" in capsys.readouterr().out


@pytest.mark.parametrize("root, cwd", [(".", "shop"), ("..", "shop/inner")])
def test_scan_app_name_of_a_dot_root_is_the_directory_name(tmp_path, monkeypatch, capsys, root, cwd):
    (tmp_path / "shop" / "inner").mkdir(parents=True)
    (tmp_path / "shop" / "ok.php").write_text("<?php echo 'static'; ?>\n")
    monkeypatch.chdir(tmp_path / cwd)
    main(["scan", "--root", root])
    assert "Application : shop\n" in capsys.readouterr().out


def test_scan_notes_what_the_lexer_could_not_read(tmp_path, capsys):
    (tmp_path / "h.php").write_text('<?php\n$a = <<<EOT\nhello\necho $_GET["x"];\n')
    assert main(["scan", "--root", str(tmp_path)]) == 0
    assert f"note: {tmp_path / 'h.php'}:2: unterminated heredoc" in capsys.readouterr().err


def test_scan_folds_ini_audit_into_report(tmp_path, capsys):
    (tmp_path / "ok.php").write_text("<?php echo 'static'; ?>\n")
    rc = main([
        "scan", "--root", str(tmp_path),
        "--ini", str(FIXTURES / "php_ini" / "vulnerable.ini"),
    ])
    out = capsys.readouterr().out
    assert rc == 1  # clean code, dirty config: still exit 1
    assert "CONFIGURATION ISSUES" in out
    assert "display_errors" in out


def test_scan_missing_checklist_file(tmp_path, capsys):
    rc = main(["scan", "--root", str(tmp_path), "--checklist", str(tmp_path / "absent")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("checklist:")


def test_scan_out_then_report_round_trip(tmp_path, capsys):
    out_path = tmp_path / "report.txt"
    main(["scan", "--root", str(FIXTURES / "bookstore"), "--out", str(out_path)])
    first = capsys.readouterr().out
    data_path = Path(str(out_path) + ".data")
    assert out_path.exists() and data_path.exists()
    assert out_path.read_text() == first.removesuffix("\n")

    rc = main(["report", "--data", str(data_path)])
    second = capsys.readouterr().out
    assert rc == 0
    assert second == first


def test_report_missing_data_file(tmp_path, capsys):
    rc = main(["report", "--data", str(tmp_path / "nope.data")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("report:")


def test_report_rejects_garbage(tmp_path, capsys):
    bad = tmp_path / "x.data"
    bad.write_text("just some text\n")
    rc = main(["report", "--data", str(bad)])
    assert rc == 1
    assert "not a phpwarden-report" in capsys.readouterr().err


def test_audit_vulnerable_ini_lists_violations_in_policy_order(capsys):
    rc = main(["audit", "--ini", str(FIXTURES / "php_ini" / "vulnerable.ini")])
    out = capsys.readouterr().out
    assert rc == 1
    names = [line.split(" = ")[0] for line in out.splitlines()]
    assert names == [
        "register_globals",
        "display_errors",
        "allow_url_fopen",
        "expose_php",
        "session.use_only_cookies",
    ]
    for line in out.splitlines():
        assert re.fullmatch(r"\S+ = \S+ \(recommended: \S+\) - .+", line)


@pytest.mark.parametrize("command", ["audit", "scan"])
def test_ini_lines_the_parser_skipped_are_noted(tmp_path, capsys, command):
    ini = tmp_path / "php.ini"
    ini.write_text("display_errors Off\n= On\nexpose_php = Off\n")
    argv = ["--ini", str(ini)] + (["--root", str(tmp_path)] if command == "scan" else [])
    assert main([command, *argv]) == 1  # display_errors stays at its default, On
    captured = capsys.readouterr()
    assert f"note: {ini}: line 1: not a key = value entry\n" in captured.err
    assert f"note: {ini}: line 2: empty setting name\n" in captured.err
    assert "display_errors" in captured.out and "expose_php" not in captured.out


def test_audit_hardened_ini_is_clean(capsys):
    rc = main(["audit", "--ini", str(FIXTURES / "php_ini" / "hardened.ini")])
    assert rc == 0
    assert capsys.readouterr().out == "No misconfigurations detected.\n"


def test_train_rejects_half_credentials(tmp_path, capsys):
    rc = main([
        "train", "--role", "manager", "--base", "http://127.0.0.1:1",
        "--store", str(tmp_path), "--login-user", "mark",
    ])
    assert rc == 2
    assert "--login-user and --login-pass go together" in capsys.readouterr().err


@pytest.mark.parametrize("role", ["", "..", "../escaped", "a\tb"])
def test_train_refuses_a_role_that_cannot_name_a_file(tmp_path, monkeypatch, capsys, role):
    crawled = []
    monkeypatch.setattr(cli, "crawl", lambda *args: crawled.append(args) or [])
    store = tmp_path / "store"
    rc = main(["train", "--role", role, "--base", "http://127.0.0.1:1", "--store", str(store)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"train: role {role!r} ") and err.count("\n") == 1
    assert crawled == []
    assert not store.exists()


def test_train_refuses_a_role_too_long_to_name_a_file(tmp_path, monkeypatch, capsys):
    crawled = []
    monkeypatch.setattr(cli, "crawl", lambda *args: crawled.append(args) or [])
    store = tmp_path / "store"
    rc = main(["train", "--role", "r" * 300, "--base", "http://127.0.0.1:1", "--store", str(store)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"train: role {'r' * 16!r}... is too long to name a file in ") and err.count("\n") == 1
    assert crawled == []
    assert os.listdir(store) == []


def test_train_unreachable_target(tmp_path, capsys):
    rc = main(["train", "--role", "0", "--base", "http://127.0.0.1:1", "--store", str(tmp_path)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("train:")


def test_build_model_empty_store(tmp_path, capsys):
    rc = main(["build-model", "--store", str(tmp_path / "store"), "--out", str(tmp_path / "models")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("build-model:")


def test_scan_missing_root_is_a_usage_error(tmp_path, capsys):
    rc = main(["scan", "--root", str(tmp_path / "absent")])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("scan: --root ")
    assert "not a directory" in captured.err
    assert "No vulnerabilities detected" not in captured.out


def test_audit_missing_ini(tmp_path, capsys):
    rc = main(["audit", "--ini", str(tmp_path / "absent.ini")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("audit: ")
    assert "absent.ini" in err


def test_scan_missing_ini(tmp_path, capsys):
    (tmp_path / "ok.php").write_text("<?php echo 'static'; ?>\n")
    rc = main(["scan", "--root", str(tmp_path), "--ini", str(tmp_path / "absent.ini")])
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.startswith("scan: ")
    assert "absent.ini" in captured.err
    assert captured.out == ""


def test_missing_policy(tmp_path, capsys):
    ini = str(FIXTURES / "php_ini" / "hardened.ini")
    rc = main(["audit", "--ini", ini, "--policy", str(tmp_path / "absent.policy")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("audit: ")
    assert "absent.policy" in err


def test_build_model_missing_store_is_not_created(tmp_path, capsys):
    store = tmp_path / "absent"
    rc = main(["build-model", "--store", str(store), "--out", str(tmp_path / "models")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("build-model: no store directory at ")
    assert not store.exists()
    assert not (tmp_path / "models").exists()


@pytest.mark.parametrize("begin", [False, True], ids=["extends-trail", "opens-trail"])
def test_build_model_refuses_a_store_whose_index_write_failed(tmp_path, monkeypatch, capsys, begin):
    # an interrupted run leaves an id that no trail covers, and recording into
    # the reopened store does not cover it: the store fails closed
    store_dir = tmp_path / "store"
    store = ProfileStore(store_dir)
    store.begin_trail("0")
    store.record_exchange("GET /a.php HTTP/1.1\r\nHost: x\r\n\r\n", "0")
    write = profile_store._write

    def failing_index_write(path, *args, **kwargs):
        if os.path.basename(path) == "trails":
            raise OSError("no space left on device")
        return write(path, *args, **kwargs)

    monkeypatch.setattr(profile_store, "_write", failing_index_write)
    if begin:
        store.begin_trail("0")
    with pytest.raises(OSError):
        store.record_exchange("GET /b.php HTTP/1.1\r\nHost: x\r\n\r\n", "0")
    monkeypatch.undo()
    ProfileStore(store_dir).record_exchange("GET /c.php HTTP/1.1\r\nHost: x\r\n\r\n", "0")
    rc = main(["build-model", "--store", str(store_dir), "--out", str(tmp_path / "models")])
    err = capsys.readouterr().err
    assert rc == 1
    assert re.fullmatch(r"build-model: .* communication id 2 not covered by any trail\n", err)
    assert not (tmp_path / "models").exists()


def test_enforce_listen_must_be_host_port(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main([
            "enforce", "--models", str(tmp_path), "--listen", "nonsense",
            "--upstream", "127.0.0.1:1", "--bindings", str(tmp_path / "b"),
        ])
    assert exc.value.code == 2


def test_enforce_missing_models(tmp_path, capsys):
    (tmp_path / "bindings.txt").write_text("mark,manager\n")
    rc = main([
        "enforce", "--models", str(tmp_path / "absent"),
        "--listen", "127.0.0.1:0", "--upstream", "127.0.0.1:1",
        "--bindings", str(tmp_path / "bindings.txt"),
    ])
    assert rc == 1
    assert capsys.readouterr().err.startswith("enforce:")


def test_enforce_unwritable_log_is_reported_at_start(tmp_path, capsys):
    models = tmp_path / "models"
    models.mkdir()
    (models / "requests.csv").write_text("sno,convid,reqresid,sessionFlag,role\n1,1,GET_About.php,0,0\n")
    (models / "0.xml").write_text('<Pages entry="About.php" />\n')
    (tmp_path / "bindings.txt").write_text("mark,manager\n")
    rc = main([
        "enforce", "--models", str(models),
        "--listen", "127.0.0.1:0", "--upstream", "127.0.0.1:1",
        "--bindings", str(tmp_path / "bindings.txt"),
        "--log", str(tmp_path / "absent" / "deviations.log"),
    ])
    assert rc == 1
    assert capsys.readouterr().err.startswith("enforce:")


@pytest.mark.parametrize("line", ["mark,", ",manager"])
def test_enforce_refuses_bindings_with_an_empty_username_or_role(tmp_path, capsys, monkeypatch, line):
    # a proxy that started would serve until killed
    monkeypatch.setattr(proxy, "EnforcementProxy", lambda *args: pytest.fail("the proxy was built"))
    models = tmp_path / "models"
    models.mkdir()
    (models / "requests.csv").write_text("sno,convid,reqresid,sessionFlag,role\n1,1,GET_About.php,0,0\n")
    (models / "0.xml").write_text('<Pages entry="About.php" />\n')
    (tmp_path / "bindings.txt").write_text(f"emma,employer\n{line}\n")
    rc = main([
        "enforce", "--models", str(models),
        "--listen", "127.0.0.1:0", "--upstream", "127.0.0.1:1",
        "--bindings", str(tmp_path / "bindings.txt"),
        "--log", str(tmp_path / "deviations.log"),
    ])
    assert rc == 1
    assert capsys.readouterr().err == "enforce: bindings line 2: expected username,role, neither empty\n"


def test_enforce_unresolvable_upstream_is_reported_at_start(tmp_path, capsys, monkeypatch):
    models = tmp_path / "models"
    models.mkdir()
    (models / "requests.csv").write_text("sno,convid,reqresid,sessionFlag,role\n1,1,GET_About.php,0,0\n")
    (models / "0.xml").write_text('<Pages entry="About.php" />\n')
    (tmp_path / "bindings.txt").write_text("mark,manager\n")

    def unresolvable(host, *args, **kwargs):
        raise socket.gaierror(socket.EAI_NONAME, "Name or service not known")

    monkeypatch.setattr(socket, "getaddrinfo", unresolvable)
    rc = main([
        "enforce", "--models", str(models),
        "--listen", "127.0.0.1:0", "--upstream", "no-such-host.invalid:8008",
        "--bindings", str(tmp_path / "bindings.txt"),
        "--log", str(tmp_path / "deviations.log"),
    ])
    assert rc == 1
    assert capsys.readouterr().err.startswith("enforce: cannot resolve upstream no-such-host.invalid:8008: ")


def enforce_argv(tmp_path: Path, port: int) -> list[str]:
    """argv of an enforce command on port, in front of a one-row model."""
    models = tmp_path / "models"
    models.mkdir()
    (models / "requests.csv").write_text("sno,convid,reqresid,sessionFlag,role\n1,1,GET_About.php,0,0\n")
    (models / "0.xml").write_text('<Pages entry="About.php" />\n')
    (tmp_path / "bindings.txt").write_text("mark,manager\n")
    return ["enforce", "--models", str(models), "--listen", f"127.0.0.1:{port}", "--upstream", "127.0.0.1:1",
            "--bindings", str(tmp_path / "bindings.txt"), "--log", str(tmp_path / "deviations.log")]


@pytest.mark.parametrize("command", ["enforce", "serve-demo"])
def test_a_server_on_a_busy_port_exits_one_naming_the_address(tmp_path, command):
    with socket.socket() as taken:
        taken.bind(("127.0.0.1", 0))
        taken.listen()
        port = taken.getsockname()[1]
        argv = enforce_argv(tmp_path, port) if command == "enforce" else [command, "--listen", f"127.0.0.1:{port}"]
        proc = subprocess.run([sys.executable, "-m", "phpwarden.cli", *argv], capture_output=True, text=True,
                              timeout=30)
    busy = f"[Errno {errno.EADDRINUSE}] {os.strerror(errno.EADDRINUSE)}"
    assert (proc.returncode, proc.stderr) == (1, f"{command}: cannot listen on 127.0.0.1:{port}: {busy}\n")


def test_enforce_stops_at_a_ctrl_c_and_frees_its_port(tmp_path):
    port = _free_port()
    proc = subprocess.Popen([sys.executable, "-m", "phpwarden.cli", *enforce_argv(tmp_path, port)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            env={**os.environ, "PYTHONUNBUFFERED": "1"})
    try:
        _wait_port(port)
        # printed just before it serves, so the Ctrl-C finds it serving
        assert proc.stdout.readline().startswith("enforcing on ")
        proc.send_signal(signal.SIGINT)
        _, err = proc.communicate(timeout=5)
    finally:
        proc.kill()
        proc.communicate()
    assert proc.returncode == 0, err
    with pytest.raises(ConnectionRefusedError):
        socket.create_connection(("127.0.0.1", port), timeout=2).close()


def unusable_input(case: str, tmp_path: Path) -> list[str]:
    """argv of a command given something it cannot read, write or use."""
    store = tmp_path / "store"
    train = ["train", "--role", "0", "--base", "http://127.0.0.1:1", "--store", str(store)]
    if case == "train-store-is-a-file":
        store.write_text("")
        return train
    if case == "train-refused-index-line":
        store.mkdir()
        (store / "trails").write_text("0\tx\t1\n")
        return train
    if case in ("train-cut-role-file", "build-model-cut-role-file"):
        ProfileStore(store).record_exchange("GET /a.php HTTP/1.1\r\nHost: x\r\n\r\n", "0")
        role_xml = (store / "0.xml").read_bytes()
        (store / "0.xml").write_bytes(role_xml[:len(role_xml) // 2])
        if case == "train-cut-role-file":
            return train
        return ["build-model", "--store", str(store), "--out", str(tmp_path / "models")]
    if case == "scenario-missing-file":
        return ["scenario", "--enforcer", "127.0.0.1:1", "--file", str(tmp_path / "absent.scn")]
    if case == "scan-out-in-a-missing-directory":
        return ["scan", "--root", str(FIXTURES / "bookstore"), "--out", str(tmp_path / "absent" / "r.txt")]
    assert case == "report-body-not-a-report"
    (tmp_path / "r.data").write_text("phpwarden-report 1\n{}\n")
    return ["report", "--data", str(tmp_path / "r.data")]


@pytest.mark.parametrize("case", [
    "train-store-is-a-file", "train-refused-index-line", "scenario-missing-file",
    "scan-out-in-a-missing-directory", "build-model-cut-role-file", "train-cut-role-file",
    "report-body-not-a-report",
])
def test_what_a_command_cannot_read_or_write_exits_one_with_its_name(tmp_path, capsys, case):
    argv = unusable_input(case, tmp_path)
    assert main(argv) == 1
    assert capsys.readouterr().err.splitlines()[-1].startswith(f"{argv[0]}: ")


@pytest.mark.parametrize("responses", [
    [b"HTTP/1.1 404 Not Found\r\nContent-Length: 0\r\n\r\n"],
    [b'HTTP/1.1 200 OK\r\nContent-Length: 25\r\n\r\n<a href="About.php">x</a>',
     b"HTTP/1.1 500 Internal Server Error\r\nContent-Length: 0\r\n\r\n"],
], ids=["landing-page", "mid-crawl"])
def test_train_stops_at_a_page_that_is_not_200(keepalive_upstream, tmp_path, capsys, responses):
    keepalive_upstream.responses += responses
    base = "http://%s:%d/" % keepalive_upstream.server_address
    rc = main(["train", "--role", "0", "--base", base, "--store", str(tmp_path / "store")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err == ("train: landing page returned 404\n" if len(responses) == 1
                   else "train: GET /About.php returned 500 during role 0 crawl\n")


def test_scenario_list_names_builtins(capsys):
    rc = main(["scenario", "--list"])
    assert rc == 0
    assert capsys.readouterr().out.splitlines() == list(BUILTIN_SCENARIOS)


def test_scenario_needs_enforcer_address(capsys):
    rc = main(["scenario", "--name", "auth-bypass"])
    assert rc == 2
    assert "--enforcer is required" in capsys.readouterr().err


def test_scenario_name_xor_file(tmp_path, capsys):
    script = tmp_path / "s.scn"
    script.write_text("")
    rc = main([
        "scenario", "--enforcer", "127.0.0.1:1",
        "--name", "auth-bypass", "--file", str(script),
    ])
    assert rc == 2
    assert "exactly one of --name or --file" in capsys.readouterr().err


def test_scenario_unknown_builtin(capsys):
    rc = main(["scenario", "--enforcer", "127.0.0.1:1", "--name", "no-such"])
    assert rc == 2
    assert "unknown scenario" in capsys.readouterr().err


def test_module_and_console_entry_points(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "phpwarden.cli", "--version"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == f"phpwarden {__version__}"
    # The console script is checked from the source tree: the entry declared
    # in pyproject.toml must resolve, and a wrapper of the form pip generates
    # for it must behave like the installed script would.
    tomllib = pytest.importorskip("tomllib")
    with open(REPO / "pyproject.toml", "rb") as f:
        scripts = tomllib.load(f)["project"].get("scripts", {})
    assert "phpwarden" in scripts, "no phpwarden entry in [project.scripts]"
    module, _, attr = scripts["phpwarden"].partition(":")
    assert callable(getattr(importlib.import_module(module), attr, None))
    wrapper = tmp_path / "phpwarden"
    wrapper.write_text(
        f"import sys\nfrom {module} import {attr}\nsys.exit({attr}())\n"
    )
    proc = subprocess.run(
        [sys.executable, str(wrapper), "--version"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == f"phpwarden {__version__}"


@pytest.mark.skipif(
    shutil.which("phpwarden") is None,
    reason="no phpwarden console script on PATH (package not installed)",
)
def test_installed_console_script():
    script = shutil.which("phpwarden")
    assert script, "console script not installed"
    proc = subprocess.run([script, "--version"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == f"phpwarden {__version__}"


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """The whole train / build-model / enforce loop through the CLI, with the
    servers as real subprocesses."""
    tmp = tmp_path_factory.mktemp("cli_pipeline")
    demo_port = _free_port()
    proxy_port = _free_port()
    procs = []
    try:
        demo = subprocess.Popen(
            [sys.executable, "-m", "phpwarden.cli", "serve-demo",
             "--listen", f"127.0.0.1:{demo_port}", "--seed", "3"],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        procs.append(demo)
        _wait_port(demo_port)

        base = f"http://127.0.0.1:{demo_port}"
        store = tmp / "store"
        assert main(["train", "--role", "0", "--base", base, "--store", str(store)]) == 0
        assert main([
            "train", "--role", "manager", "--base", base, "--store", str(store),
            "--login-user", "mark", "--login-pass", "maplesyrup",
        ]) == 0
        assert main([
            "train", "--role", "employer", "--base", base, "--store", str(store),
            "--login-user", "emma", "--login-pass", "evergreen",
        ]) == 0

        models = tmp / "models"
        assert main(["build-model", "--store", str(store), "--out", str(models)]) == 0

        bindings = tmp / "bindings.txt"
        bindings.write_text("mark,manager\nemma,employer\n")
        log_path = tmp / "deviations.log"
        enforce = subprocess.Popen(
            [sys.executable, "-m", "phpwarden.cli", "enforce",
             "--models", str(models),
             "--listen", f"127.0.0.1:{proxy_port}",
             "--upstream", f"127.0.0.1:{demo_port}",
             "--bindings", str(bindings),
             "--log", str(log_path)],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        procs.append(enforce)
        _wait_port(proxy_port)
        yield {"proxy": f"127.0.0.1:{proxy_port}", "tmp": tmp, "log": log_path}
    finally:
        for proc in procs:
            proc.terminate()
        for proc in procs:
            try:
                proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                proc.kill()


@pytest.mark.parametrize("name", list(BUILTIN_SCENARIOS))
def test_builtin_scenarios_pass(pipeline, name, capsys):
    rc = main(["scenario", "--enforcer", pipeline["proxy"], "--name", name])
    out = capsys.readouterr().out
    assert rc == 0, out
    assert out.splitlines()[-1] == f"PASS {name}"


def test_scenario_from_file(pipeline, capsys):
    script = pipeline["tmp"] / "custom.scn"
    script.write_text(
        "client visitor cli-file-test\n"
        "request visitor GET /About.php expect=don't_block\n"
    )
    rc = main(["scenario", "--enforcer", pipeline["proxy"], "--file", str(script)])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.splitlines()[-1] == "PASS custom.scn"


def test_failing_scenario_exits_one(pipeline, capsys):
    script = pipeline["tmp"] / "wrong.scn"
    script.write_text(
        "client intruder cli-wrong-test\n"
        "request intruder GET /Home.php expect=don't_block\n"
    )
    rc = main(["scenario", "--enforcer", pipeline["proxy"], "--file", str(script)])
    out = capsys.readouterr().out
    assert rc == 1
    assert "FAIL" in out


def test_deviation_log_written(pipeline):
    # the attack scenarios above must have produced log records
    assert pipeline["log"].exists()
    assert pipeline["log"].read_text().strip()


HTTP_STACK = ("http.client", "ssl", "urllib.request", "http.server", "email.parser")


@pytest.mark.parametrize("modules", ["phpwarden.cli", "phpwarden.enforcer, phpwarden.proxy, phpwarden.models",
                                     "phpwarden.crawler, phpwarden.scenarios"])
def test_scan_and_enforce_imports_leave_out_the_http_stack(modules):
    code = f"import sys, {modules}; print([m for m in {HTTP_STACK!r} if m in sys.modules])"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cli_import_leaves_out_socket():
    # the crawler imports socket when it sends its first request, so a scan
    # process does not pay for loading it
    code = "import sys, phpwarden.cli; print('socket' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_trace_hook_points_are_module_globals(tmp_path, monkeypatch):
    # perfbench/spans.py times these by replacing the module attributes
    from phpwarden import cli, scanner

    for module, name in [(cli, "write_report"), (cli, "crawl"), (cli, "build_model"),
                         (cli, "load_model"), (scanner, "tokenize"), (scanner, "scan_file")]:
        assert callable(getattr(module, name, None)), f"{module.__name__}.{name}"
    (tmp_path / "lib").mkdir()
    (tmp_path / "a.php").write_text("<?php\ninclude 'lib/l.php';\n")
    (tmp_path / "b.php").write_text("<?php\ninclude 'lib/l.php';\n")
    (tmp_path / "lib" / "l.php").write_text("<?php\ninclude 'm.php';\n")
    (tmp_path / "lib" / "m.php").write_text("<?php\necho $_GET['m'];\n")
    calls = []
    scan_file = scanner.scan_file

    def recording_scan_file(path, *args):
        calls.append(Path(path).name)
        return scan_file(path, *args)

    monkeypatch.setattr(scanner, "scan_file", recording_scan_file)
    assert main(["scan", "--root", str(tmp_path)]) == 1
    # b.php's include replays the walk a.php's include stored, through scan_file
    assert calls == ["a.php", "l.php", "m.php", "b.php", "l.php", "l.php", "m.php", "m.php"]


# the directory that holds the phpwarden package under test
PACKAGE_ROOT = str(Path(cli.__file__).resolve().parent.parent)


def _python(*args: str) -> subprocess.CompletedProcess:
    """A fresh `python -S args`, which has run no site hook (a .pth file may
    import typing or importlib.resources, say, before phpwarden starts) and
    imports phpwarden from PACKAGE_ROOT.  It must exit 0."""
    proc = subprocess.run([sys.executable, "-S", *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": PACKAGE_ROOT})
    assert proc.returncode == 0, proc.stderr
    return proc


def test_cli_import_leaves_out_the_training_and_model_code():
    # scan processes import only the scanner side; train, build-model and
    # enforce import the rest inside their commands
    left_out = ("phpwarden.crawler", "phpwarden.profile_store", "phpwarden.models", "xml.etree", "csv",
                "logging")
    code = f"import sys, phpwarden.cli; print([m for m in {left_out!r} if m in sys.modules])"
    assert _python("-c", code).stdout.strip() == "[]"


SCAN_STACK = ("phpwarden.checklist", "phpwarden.config_audit", "phpwarden.report", "phpwarden.scanner",
              "phpwarden.lexer")


def _modules_loaded_by(argv: list[str], modules: tuple[str, ...]) -> tuple[int, list[str]]:
    """(exit code of `phpwarden argv`, those of modules it loaded), run in a
    fresh interpreter."""
    code = ("import sys; from phpwarden.cli import main; rc = main(sys.argv[1:]); "
            f"print(rc, *[m for m in {modules!r} if m in sys.modules])")
    rc, *loaded = _python("-c", code, *argv).stdout.splitlines()[-1].split()
    return int(rc), loaded


def test_cli_import_leaves_out_the_scan_stack():
    code = f"import sys, phpwarden.cli; print([m for m in {SCAN_STACK!r} if m in sys.modules])"
    assert _python("-c", code).stdout.strip() == "[]"


def test_build_model_loads_no_scan_stack(tmp_path):
    store = ProfileStore(tmp_path / "store")
    store.begin_trail("0")
    for target in ("/index.php", "/About.php"):
        store.record_exchange(f"GET {target} HTTP/1.1\r\nHost: x\r\n\r\n", "0")
    assert _modules_loaded_by(["build-model", "--store", str(tmp_path / "store"),
                               "--out", str(tmp_path / "models")], SCAN_STACK) == (0, [])


# the modules each gate command imports, beside phpwarden.cli, and whether
# it reads or writes XML
GATE_COMMAND_MODULES = {
    "train": (("phpwarden.crawler", "phpwarden.profile_store"), False),
    "build-model": (("phpwarden.models", "phpwarden.profile_store"), True),
    "enforce": (("logging", "socket", "phpwarden.enforcer", "phpwarden.proxy", "phpwarden.models"), True),
    "serve-demo": (("phpwarden.demoapp",), False),
    "scenario": (("phpwarden.scenarios",), False),
}


def _newly_loaded(code: str, modules: tuple[str, ...]) -> list[str]:
    """Those of modules that running code in a fresh interpreter loads,
    beyond what the interpreter loaded before it."""
    script = (f"import sys\nbefore = set(sys.modules)\nimport phpwarden.cli\n{code}\n"
              f"print(*[m for m in {modules!r} if m in sys.modules and m not in before])")
    return _python("-c", script).stdout.split()


@pytest.mark.parametrize("command", GATE_COMMAND_MODULES)
def test_gate_commands_load_no_dataclasses(command):
    modules, xml = GATE_COMMAND_MODULES[command]
    left_out = ("dataclasses", "inspect", "typing") + (() if xml else ("xml.etree",))
    # the gate serves and the demo app answers with no training-store code
    left_out += () if "phpwarden.profile_store" in modules else ("phpwarden.profile_store",)
    # only the demo app, an http.server, is a socketserver
    left_out += () if command == "serve-demo" else ("socketserver",)
    assert _newly_loaded("".join(f"import {m}\n" for m in modules), left_out) == []


def test_scenario_list_loads_no_training_store():
    assert _modules_loaded_by(["scenario", "--list"], ("phpwarden.profile_store",)) == (0, [])


def test_training_into_a_fresh_store_loads_no_xml(tmp_path):
    code = ("import phpwarden.crawler\n"
            "from phpwarden.profile_store import ProfileStore\n"
            f"store = ProfileStore({str(tmp_path / 'store')!r})\n"
            "store.record_exchange('GET /index.php HTTP/1.1\\r\\nHost: x\\r\\n\\r\\n', '0')\n"
            "store.record_exchange('GET /About.php HTTP/1.1\\r\\nHost: x\\r\\n\\r\\n', '0')")
    assert _newly_loaded(code, ("xml.etree",)) == []
    assert len(ProfileStore(tmp_path / "store").trails[0].pages) == 2


def test_scan_without_ini_loads_no_audit_training_or_model_code(tmp_path):
    (tmp_path / "a.php").write_text("<?php\necho $_GET['a'];\n")
    left_out = ("phpwarden.config_audit", "phpwarden.crawler", "phpwarden.profile_store", "phpwarden.models",
                "phpwarden.http1")
    assert _modules_loaded_by(["scan", "--root", str(tmp_path)], left_out) == (1, [])


@pytest.mark.parametrize("command", [["scan", "--root", "{tree}"], ["scan", "--root", "{tree}", "--ini", "{ini}"],
                                     ["audit", "--ini", "{ini}"]], ids=["scan", "scan-ini", "audit"])
def test_scan_and_audit_load_no_dataclasses(tmp_path, command):
    (tmp_path / "a.php").write_text("<?php\necho $_GET['a'];\n")
    ini = str(FIXTURES / "php_ini" / "vulnerable.ini")
    argv = [arg.format(tree=tmp_path, ini=ini) for arg in command]
    left_out = ("dataclasses", "inspect", "typing", "importlib.resources")
    assert _modules_loaded_by(argv, left_out) == (1, [])


def test_scan_cuts_an_include_chain_past_the_depth_bound(tmp_path, capsys):
    # f0.php includes f1.php, and so on, three files past the bound; the
    # last echoes what the first read from the request
    from phpwarden.scanner import MAX_INCLUDE_DEPTH
    last = MAX_INCLUDE_DEPTH + 3
    for i in range(last):
        (tmp_path / f"f{i}.php").write_text(f"<?php\n$x = $_GET['a'];\ninclude 'f{i + 1}.php';\n")
    (tmp_path / f"f{last}.php").write_text("<?php\necho $x;\n")
    assert main(["scan", "--root", str(tmp_path)]) == 1
    out, err = capsys.readouterr()
    assert "VulnerabilityName : Cross-Site Scripting" in out
    assert (f"note: {tmp_path / f'f{MAX_INCLUDE_DEPTH}.php'}: include depth {MAX_INCLUDE_DEPTH} "
            f"reached at f{MAX_INCLUDE_DEPTH + 1}.php") in err
    assert "Traceback" not in err
