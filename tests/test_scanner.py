from pathlib import Path

import pytest

from phpwarden.checklist import default_checklist, load_checklist
from phpwarden.scanner import ScanContext, scan_file, scan_project
from scanner_oracle import expected_findings

FIXTURES = Path(__file__).parent / "oracle_fixtures"

CHECKLIST = default_checklist()


def findings_set(findings):
    return {(f.line, f.category) for f in findings}


@pytest.mark.parametrize(
    "fixture", sorted(p.name for p in FIXTURES.glob("*.php"))
)
def test_scanner_matches_oracle(fixture):
    path = FIXTURES / fixture
    want = expected_findings(path.read_text(), CHECKLIST)
    got = findings_set(scan_file(path, CHECKLIST))
    assert got == want


def test_admin_menu_fixture_exact_findings(repo_root):
    findings = scan_file(repo_root / "fixtures/empldir_php4t/AdminMenu.php", CHECKLIST)
    assert [(f.line, f.category) for f in findings] == [
        (114, "CrossSiteScripting"),
        (131, "SqlInjection"),
        (153, "SqlInjection"),
    ]
    assert [f.number for f in findings] == [1, 2, 3]
    for f in findings:
        assert f.children, "each finding should name its tainted parameters"


TABLE_CATEGORY_SETS = {
    "portal": {"SqlInjection", "FileManipulation", "CrossSiteScripting"},
    "scarf": {"FileManipulation", "SqlInjection", "CrossSiteScripting"},
    "cet": {"SqlInjection", "CrossSiteScripting"},
    "bookstore": {"SqlInjection", "CrossSiteScripting"},
    "employee_dir": {"SqlInjection", "CrossSiteScripting", "FileManipulation"},
}


@pytest.mark.parametrize("app", sorted(TABLE_CATEGORY_SETS))
def test_mini_app_category_sets(repo_root, app):
    result = scan_project(repo_root / "fixtures" / app, CHECKLIST)
    assert {f.category for f in result.findings} == TABLE_CATEGORY_SETS[app]


def test_html_only_file_scans_clean(tmp_path):
    target = tmp_path / "static.php"
    target.write_text("<html><body>no php here</body></html>\n")
    result = scan_project(tmp_path, CHECKLIST)
    assert result.findings == []
    assert result.files_scanned == 1


def test_include_following_pulls_findings(tmp_path):
    (tmp_path / "lib.php").write_text("<?php\necho $_GET['q'];\n")
    (tmp_path / "main.php").write_text("<?php\ninclude 'lib.php';\n")
    findings = scan_file(tmp_path / "main.php", CHECKLIST)
    assert [(Path(f.file).name, f.line, f.category) for f in findings] == [
        ("lib.php", 2, "CrossSiteScripting")
    ]


def test_include_cycle_is_cut(tmp_path):
    (tmp_path / "a.php").write_text("<?php\ninclude 'b.php';\necho $_GET['x'];\n")
    (tmp_path / "b.php").write_text("<?php\ninclude 'a.php';\n")
    ctx = ScanContext()
    findings = scan_file(tmp_path / "a.php", CHECKLIST, ctx)
    assert findings_set(findings) == {(3, "CrossSiteScripting")}
    assert any("cycle" in d for d in ctx.diagnostics)


def test_missing_include_target_is_diagnostic_not_error(tmp_path):
    (tmp_path / "main.php").write_text("<?php\ninclude 'gone.php';\n")
    ctx = ScanContext()
    assert scan_file(tmp_path / "main.php", CHECKLIST, ctx) == []
    assert any("gone.php" in d for d in ctx.diagnostics)


def test_dynamic_include_is_file_inclusion_finding(tmp_path):
    target = tmp_path / "page.php"
    target.write_text("<?php\ninclude $_GET['page'];\n")
    findings = scan_file(target, CHECKLIST)
    assert findings_set(findings) == {(2, "FileInclusion")}


def test_short_echo_tag_is_a_sink(tmp_path):
    target = tmp_path / "tpl.php"
    target.write_text("<p><?= $_GET['name'] ?></p>\n")
    findings = scan_file(target, CHECKLIST)
    assert findings_set(findings) == {(1, "CrossSiteScripting")}


def test_method_call_sink(tmp_path):
    target = tmp_path / "db.php"
    target.write_text("<?php\n$db->query($_POST['id']);\n")
    findings = scan_file(target, CHECKLIST)
    assert (2, "SqlInjection") in findings_set(findings)


def test_interpolated_taint_in_double_quotes(tmp_path):
    target = tmp_path / "q.php"
    target.write_text(
        "<?php\n"
        "$id = $_GET['id'];\n"
        "mysql_query(\"SELECT * FROM t WHERE id = $id\");\n"
    )
    findings = scan_file(target, CHECKLIST)
    assert findings_set(findings) == {(3, "SqlInjection")}


def test_function_definitions_keep_scopes_paired(tmp_path):
    target = tmp_path / "f.php"
    target.write_text(
        "<?php\n"
        "function helper($x) {\n"
        "    $y = $x;\n"
        "    return $y;\n"
        "}\n"
        "echo $_GET['q'];\n"
    )
    ctx = ScanContext()
    findings = scan_file(target, CHECKLIST, ctx)
    assert findings_set(findings) == {(6, "CrossSiteScripting")}
    assert not ctx.in_function
    assert not ctx.in_class


def test_unreadable_file_records_diagnostic(tmp_path):
    ctx = ScanContext()
    assert scan_file(tmp_path / "nope.php", CHECKLIST, ctx) == []
    assert any(d.startswith("skipped") for d in ctx.diagnostics)


def test_scan_project_dedupes_and_renumbers(tmp_path):
    # lib.php is both scanned directly and reached via include from main.php
    (tmp_path / "lib.php").write_text("<?php\necho $_GET['q'];\n")
    (tmp_path / "main.php").write_text("<?php\ninclude 'lib.php';\necho $_COOKIE['c'];\n")
    result = scan_project(tmp_path, CHECKLIST)
    keys = [(Path(f.file).name, f.line) for f in result.findings]
    assert keys.count(("lib.php", 2)) == 1
    assert [f.number for f in result.findings] == list(
        range(1, len(result.findings) + 1)
    )
    assert result.files_scanned == 2


def test_scan_project_deterministic_modulo_elapsed(repo_root):
    first = scan_project(repo_root / "fixtures/bookstore", CHECKLIST)
    second = scan_project(repo_root / "fixtures/bookstore", CHECKLIST)
    strip = lambda r: [(f.file, f.line, f.category, f.children) for f in r.findings]
    assert strip(first) == strip(second)
    assert first.files_scanned == second.files_scanned


def test_every_finding_line_names_a_sink(repo_root):
    sink_names = CHECKLIST.all_sink_names()
    for app in TABLE_CATEGORY_SETS:
        for f in scan_project(repo_root / "fixtures" / app, CHECKLIST).findings:
            low = f.line_text.lower()
            assert any(name in low for name in sink_names), f.line_text


def test_checklist_monotonicity(tmp_path):
    target = tmp_path / "m.php"
    target.write_text("<?php\nmy_sink($_GET['a']);\nmy_sink(wash($_GET['b']));\n")
    base = load_checklist("SqlInjection: my_sink\n")
    more_sinks = load_checklist("SqlInjection: my_sink\nCommandInjection: wash\n")
    with_sanitizer = load_checklist(
        "SqlInjection: my_sink\nSqlInjection.sanitizers: wash\n"
    )
    base_set = findings_set(scan_file(target, base))
    assert findings_set(scan_file(target, more_sinks)) >= base_set
    assert findings_set(scan_file(target, with_sanitizer)) <= base_set


def test_sanitizer_only_clears_its_own_category(tmp_path):
    target = tmp_path / "s.php"
    target.write_text("<?php\n$v = htmlspecialchars($_GET['q']);\nmysql_query($v);\n")
    findings = scan_file(target, CHECKLIST)
    # htmlspecialchars defeats XSS, not SQL injection
    assert findings_set(findings) == {(3, "SqlInjection")}


def test_superglobals_come_from_the_checklist_sources(tmp_path):
    target = tmp_path / "env.php"
    target.write_text("<?php\necho $_SERVER['PHP_SELF'];\necho $_ENV['HOME'];\n")

    def origins(checklist):
        return {f.line: [c.origin() for c in f.children] for f in scan_file(target, checklist)}

    without_server = load_checklist("CrossSiteScripting: echo\nCrossSiteScripting.sources: $_GET\n")
    with_env = load_checklist("CrossSiteScripting: echo\nCrossSiteScripting.sources: $_ENV\n")
    assert origins(CHECKLIST) == {2: ["superglobal $_SERVER"], 3: ["unresolved"]}
    assert origins(without_server) == {2: ["unresolved"], 3: ["unresolved"]}
    assert origins(with_env) == {2: ["unresolved"], 3: ["superglobal $_ENV"]}
