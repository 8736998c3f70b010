import os
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from phpwarden import scanner
from phpwarden.checklist import default_checklist, load_checklist
from phpwarden.lexer import tokenize
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


# echo/print/<?= followed by ( still take the whole expression, not just
# the parenthesized part
@pytest.mark.parametrize("source", [
    "<?php\necho ('a') . $_GET['x'];\n",
    "<?php\necho ('x'), $_GET['q'];\n",
    "<?php\nprint('a') . $_GET['x'];\n",
    "<p>\n<?= ('a') . $_GET['x'] ?></p>\n",
], ids=["echo-concat", "echo-list", "print-concat", "short-tag-concat"])
def test_construct_sink_takes_the_whole_expression(tmp_path, source):
    target = tmp_path / "c.php"
    target.write_text(source)
    assert findings_set(scan_file(target, CHECKLIST)) == {(2, "CrossSiteScripting")}


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


# ASCII fragments biased to what the argument walker and the include
# handler see: unbalanced brackets, ?> inside parentheses, =>, heredocs,
# sinks of several categories, sanitizers, sources, self and missing includes
SCAN_FRAGMENTS = [
    " ", "\n", "(", ")", "[", "]", "{", "}", ";", ",", "=", ".=", "=>", "?>", "<?php ", "<?= ",
    "echo ", "print ", "include ", "require_once ", "exec", "mysql_query", "system", "eval",
    "function ", "fn", "class ", "f", "$x", "$y", "$_GET['a']", "$_POST", "file_get_contents(",
    "htmlspecialchars(", "escapeshellarg", "intval", "'t.php'", "'gone.php'", '"a $x b"', '"{$y}"',
    "<<<EOT\n$x\nEOT;\n", "<<<'N'\n$y\nN;\n", "<<<EOT\n", "'", '"', "// ?>\n", "/*", "*/",
    ".", "->", "::",
]

scan_soup = st.lists(st.sampled_from(SCAN_FRAGMENTS), max_size=60).map(
    lambda parts: "<?php " + "".join(parts))


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(source=scan_soup)
def test_scan_file_is_total(tmp_path, source):
    target = tmp_path / "t.php"
    target.write_text(source)
    lines = source.split("\n")
    for f in scan_file(target, CHECKLIST):
        assert 1 <= f.line <= len(lines) and f.line_text == lines[f.line - 1]
        assert f.children


def test_comma_separated_assignments_are_walked_once(tmp_path, monkeypatch):
    # each right-hand side ends at its comma, so token reads grow linearly
    reads = Counter()

    class CountingList(list):
        def __getitem__(self, index):
            reads["reads"] += 1
            return super().__getitem__(index)

    def counting_tokenize(source, path="<source>"):
        stream = tokenize(source, path)
        stream.tokens = CountingList(stream.tokens)
        reads["tokens"] = len(stream.tokens)
        return stream

    monkeypatch.setattr(scanner, "tokenize", counting_tokenize)
    target = tmp_path / "many.php"
    target.write_text("<?php\nf(" + ", ".join(f"$a{i} = 1" for i in range(2000)) + ");\n")
    scan_file(target, CHECKLIST)
    assert reads["reads"] < 10 * reads["tokens"]


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


# exec is a sink of both categories; each sanitizer clears only its own
@pytest.mark.parametrize("sanitizer, category", [
    ("escapeshellarg", "SqlInjection"),
    ("intval", "CommandInjection"),
])
def test_two_category_sink_is_filtered_per_category(tmp_path, sanitizer, category):
    target = tmp_path / "x.php"
    target.write_text(f"<?php\nexec({sanitizer}($_GET['c']));\n")
    assert findings_set(scan_file(target, CHECKLIST)) == {(2, category)}


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


def write_tree(root, files):
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)


def shared_library_tree(root, lib_dir, pages=5):
    write_tree(root, {f"{lib_dir}/shared.php": "<?php\n$q = $_GET['q'];\necho $v;\necho $_COOKIE['c'];\n"})
    for n in range(pages):
        write_tree(root, {f"pages/page{n}.php":
                          f"<?php\n$v = 'p{n}';\nrequire_once '../{lib_dir}/shared.php';\necho $q;\n"})


def include_heavy_tree(root):
    """Pages that set a variable a library reads, read one it sets, include
    libraries through nested and cyclic paths, and miss one target."""
    write_tree(root, {
        "lib/a.php": "<?php\ninclude 'b.php';\necho $x;\nmysql_query($y);\n",
        "lib/b.php": "<?php\n$y = $_POST['y'];\ninclude '../lib/a.php';\nfunction f($p) { echo $p; }\n",
        "lib/sub/c.php": "<?php\ninclude '../a.php';\n$z = htmlspecialchars($x);\n",
        "pages/clean.php": "<?php\n$x = 'fixed';\ninclude '../lib/a.php';\necho $y;\n",
        "pages/dirty.php": "<?php\n$x = $_GET['x'];\ninclude '../lib/sub/c.php';\necho $z;\n",
        "pages/twice.php": "<?php\ninclude '../lib/a.php';\n$x = $_COOKIE['x'];\ninclude '../lib/a.php';\n",
        "pages/missing.php": "<?php\ninclude 'gone.php';\necho $x;\n",
    })


def test_relative_root_reports_include_findings_once(tmp_path, monkeypatch):
    shared_library_tree(tmp_path / "app", "lib")
    monkeypatch.chdir(tmp_path)
    relative = scan_project("app", CHECKLIST)
    absolute = scan_project(tmp_path / "app", CHECKLIST)
    assert [(f.file, f.line, f.category) for f in relative.findings] == [
        (os.path.relpath(f.file, tmp_path), f.line, f.category) for f in absolute.findings
    ]
    assert [(f.file, f.line) for f in relative.findings].count(("app/lib/shared.php", 4)) == 1


def test_page_with_unreadable_include_is_counted(tmp_path, monkeypatch):
    (tmp_path / "lib.php").write_text("<?php\n$a = 1;\n")
    (tmp_path / "main.php").write_text("<?php\ninclude 'lib.php';\necho $_GET['q'];\n")
    read_bytes = Path.read_bytes

    def failing_read(self):
        if self.name == "lib.php":
            raise PermissionError("denied")
        return read_bytes(self)

    monkeypatch.setattr(Path, "read_bytes", failing_read)
    result = scan_project(tmp_path, CHECKLIST)
    assert findings_set(result.findings) == {(3, "CrossSiteScripting")}
    # lib.php fails as a page of its own and as main.php's include target;
    # only main.php was scanned
    assert result.files_scanned == 1
    assert sum(d.startswith("skipped") for d in result.diagnostics) == 2


@pytest.mark.parametrize("lib_name", ["a_lib.php", "z_lib.php"])
def test_unreadable_include_target_is_read_once_per_scan(tmp_path, monkeypatch, lib_name):
    (tmp_path / lib_name).write_text("<?php\n$a = 1;\n")
    for page in ("m1.php", "m2.php", "m3.php"):
        (tmp_path / page).write_text(f"<?php\ninclude '{lib_name}';\necho $_GET['q'];\n")
    reads = Counter()
    read_bytes = Path.read_bytes

    def failing_read(self):
        reads[self.name] += 1
        if self.name == lib_name:
            raise PermissionError("denied")
        return read_bytes(self)

    monkeypatch.setattr(Path, "read_bytes", failing_read)
    result = scan_project(tmp_path, CHECKLIST)
    assert len(result.findings) == 3
    # one note as an include target, one for the library's own page scan
    assert result.files_scanned == 3
    assert sum(d.startswith("skipped") for d in result.diagnostics) == 2
    assert reads[lib_name] <= 2


# A library that sorts before its first includer is lexed once more: its own
# direct scan comes first, and only include targets stay cached.
@pytest.mark.parametrize("lib_dir, lib_lexes", [("zlib", 1), ("alib", 2)])
def test_include_target_is_lexed_once_per_scan(tmp_path, monkeypatch, lib_dir, lib_lexes):
    shared_library_tree(tmp_path, lib_dir, pages=6)
    lexed = Counter()

    def counting_tokenize(source, path="<source>"):
        lexed[os.path.abspath(path)] += 1
        return tokenize(source, path)

    monkeypatch.setattr(scanner, "tokenize", counting_tokenize)
    result = scan_project(tmp_path, CHECKLIST)
    assert result.files_scanned == 7
    library = str(tmp_path / lib_dir / "shared.php")
    assert lexed.pop(library) == lib_lexes
    assert sorted(lexed.values()) == [1] * 6


def test_include_cache_holds_include_targets_only(tmp_path, monkeypatch):
    include_heavy_tree(tmp_path)
    contexts = []

    class RecordingContext(ScanContext):
        def __init__(self, *args):
            super().__init__(*args)
            contexts.append(self)

    monkeypatch.setattr(scanner, "ScanContext", RecordingContext)
    scan_project(tmp_path, CHECKLIST)
    cache = contexts[0].include_cache
    assert all(ctx.include_cache is cache for ctx in contexts)
    assert set(cache) == {str(tmp_path / p) for p in ("lib/a.php", "lib/b.php", "lib/sub/c.php")}


def independent_scans(root):
    """Deduplicated union of scan_file runs, each in a fresh context."""
    files = sorted(Path(root).rglob("*.php"), key=lambda p: p.relative_to(root).as_posix())
    union, seen = [], set()
    for path in files:
        for f in scan_file(path, CHECKLIST, ScanContext()):
            if f.key() not in seen:
                seen.add(f.key())
                union.append(f)
    return union


@pytest.mark.parametrize("tree", ["fixtures", "oracle_fixtures", "include_heavy"])
def test_scan_project_equals_union_of_independent_scans(repo_root, tmp_path, tree):
    root = {"fixtures": repo_root / "fixtures", "oracle_fixtures": FIXTURES}.get(tree, tmp_path)
    if tree == "include_heavy":
        include_heavy_tree(tmp_path)
    strip = lambda fs: [(f.file, f.line, f.line_text, f.category, f.children) for f in fs]
    project = scan_project(root, CHECKLIST).findings
    assert project and strip(project) == strip(independent_scans(root))
