import os
import tempfile
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from phpwarden import lexer, scanner
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


def test_include_literal_with_an_escape_is_followed(tmp_path):
    (tmp_path / "it's.php").write_text("<?php\necho $_GET['q'];\n")
    (tmp_path / "main.php").write_text("<?php\ninclude 'it\\'s.php';\n")
    ctx = ScanContext()
    findings = scan_file(tmp_path / "main.php", CHECKLIST, ctx)
    assert [(Path(f.file).name, f.line, f.category) for f in findings] == [
        ("it's.php", 2, "CrossSiteScripting")
    ]
    assert ctx.diagnostics == []


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


# PHP 8 reads #[ as the start of an attribute, not of a line comment
@pytest.mark.parametrize("source", [
    '<?php\n#[Route("/x")] function h() { echo $_GET["x"]; }\n',
    '<?php\n$f = #[Pure] fn($a) => $a; echo $_GET["y"];\n',
    '<?php\n#[Attr(\n "x"\n)]\nfunction h() { echo $_GET["x"]; }\n',
], ids=["function", "arrow-function", "multi-line"])
def test_an_attribute_is_not_a_comment(tmp_path, source):
    stream = tokenize(source)
    assert lexer.COMMENT not in stream.kinds and stream.diagnostics == []
    hash_at = stream.lexemes.index("#")
    assert stream.kinds[hash_at] is lexer.OPERATOR and stream.lexemes[hash_at + 1] == "["
    target = tmp_path / "a.php"
    target.write_text(source)
    echo_line = source.count("\n", 0, source.index("echo")) + 1
    assert findings_set(scan_file(target, CHECKLIST)) == {(echo_line, "CrossSiteScripting")}


@pytest.mark.parametrize("comment", ["#", "# [x]", "#\t[x]", "#(x)", "#]"])
def test_a_hash_not_followed_by_a_bracket_starts_a_comment(tmp_path, comment):
    stream = tokenize(f"<?php\n{comment} echo $_GET['x'];\n$a = 1;")
    assert stream.kinds[1] is lexer.COMMENT and stream.lexemes[1] == f"{comment} echo $_GET['x'];"
    assert stream.lexemes[2:] == ["$a", "=", "1", ";"] and stream.lines[2] == 3


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
    assert ctx._scopes == []
    assert len(ctx.frames) == 1


@pytest.mark.parametrize("default", ["1", "Foo::class", "['k' => 1]", "array('k' => 1)"])
def test_class_constant_in_a_signature_keeps_the_function_scope(tmp_path, default):
    # the keyword class in ::class opens no class scope, and only fn's body
    # starts at =>, so $x stays local to f
    target = tmp_path / "f.php"
    target.write_text(f'<?php\nfunction f($a = {default}) {{ $x = $_GET["a"]; }}\necho $x;\n')
    ctx = ScanContext()
    [finding] = scan_file(target, CHECKLIST, ctx)
    assert [(c.variable, c.origin(), c.line) for c in finding.children] == [("$x", "unresolved", 3)]
    assert ctx._scopes == []
    assert len(ctx.frames) == 1


@pytest.mark.parametrize("condition", ["$o->function", "$o?->function", "$o->fn()", "Foo::function"])
def test_a_member_named_function_opens_no_function_scope(tmp_path, condition):
    # function and fn after ->, ?-> or :: name a member or constant, so the
    # brace after them opens no function body and $y stays at file scope
    target = tmp_path / "f.php"
    target.write_text(f'<?php\nif ({condition}) {{ $y = $_GET["a"]; }}\necho $y;\n')
    ctx = ScanContext()
    [finding] = scan_file(target, CHECKLIST, ctx)
    assert [(c.variable, c.origin(), c.line) for c in finding.children] == [("$y", "superglobal $_GET", 2)]
    assert ctx._scopes == []
    assert len(ctx.frames) == 1


@pytest.mark.parametrize("source, expected", [
    # print and echo after -> name a property, so no construct opens
    ('$this->print = $_GET["a"];', {}),
    ("mysql_query($o->echo = $q);", {2: [("SqlInjection", "$q", "unresolved")]}),
    # a method named after a construct is a call: its arguments are its parenthesized list
    ("$o->print($_GET['a']) . $b;", {2: [("CrossSiteScripting", "$_GET", "superglobal $_GET")]}),
], ids=["property-print", "property-echo", "method-print"])
def test_a_keyword_after_an_arrow_names_a_member(tmp_path, source, expected):
    target = tmp_path / "m.php"
    target.write_text(f"<?php\n{source}\n")
    findings = scan_file(target, CHECKLIST)
    assert {f.line: [(f.category, c.variable, c.origin()) for c in f.children] for f in findings} == expected


def test_a_method_named_include_is_no_include(tmp_path):
    target = tmp_path / "m.php"
    target.write_text('<?php\n$o->include("lib.php");\n')
    ctx = ScanContext()
    assert scan_file(target, CHECKLIST, ctx) == []
    assert ctx.diagnostics == []


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
    reads = count_token_reads(monkeypatch)
    target = tmp_path / "many.php"
    target.write_text("<?php\nf(" + ", ".join(f"$a{i} = 1" for i in range(2000)) + ");\n")
    scan_file(target, CHECKLIST)
    assert 0 < reads["reads"] < 10 * reads["tokens"]


def test_every_finding_line_names_a_sink(repo_root):
    sink_names = CHECKLIST.sink_index.keys()
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


@pytest.mark.parametrize("source, expected", [
    # the target of an inner plain = is written, so it is no unresolved read
    ("echo ($x = 'a');", {}),
    ("$y = ($x = 'a');\necho $y;", {}),
    # the value assigned still flows out of the expression
    ("echo ($x = $_GET['a']);", {2: ["superglobal $_GET"]}),
    # a compound assignment reads its target
    ("echo ($x .= 'a');", {2: ["unresolved"]}),
], ids=["echo-of-assignment", "assignment-of-assignment", "tainted-value", "compound-reads-target"])
def test_inner_assignment_target_is_a_write(tmp_path, source, expected):
    target = tmp_path / "a.php"
    target.write_text(f"<?php\n{source}\n")
    findings = scan_file(target, CHECKLIST)
    assert {f.line: [c.origin() for c in f.children] for f in findings} == expected


@pytest.mark.parametrize("source, expected", [
    # an element or property target of an inner plain = is written too
    ("echo ($a['k'] = 'x');", {}),
    ("echo ($o->p = 'x');", {}),
    ("echo ($o->p['k'][0]->q = 'x');", {}),
    # its index expressions are still read
    ("echo ($a[$_GET['i']] = 'x');", {2: ["superglobal $_GET"]}),
    # a compound assignment reads its target
    ("echo ($a['k'] .= 'x');", {2: ["unresolved"]}),
    # so does a plain read of the element
    ("echo $o->p;", {2: ["unresolved"]}),
    # a target inside an index is written too, and its own index read
    ("echo ($a[$b[$c] = 1] = 2);", {2: ["unresolved"]}),
    ("echo ($a[] = 'x');", {}),
    # a comment before the = ends the chain, so the target is read
    ("echo ($a['k'] /* c */ = 'x');", {2: ["unresolved"]}),
    # and so does ?->, which is no property chain of a target
    ("echo ($o?->p = 'x');", {2: ["unresolved"]}),
], ids=["element", "property", "chain", "index-read", "compound-element", "property-read",
        "target-in-index", "append", "comment-before-assign", "nullsafe-read"])
def test_inner_element_or_property_assignment_target_is_a_write(tmp_path, source, expected):
    target = tmp_path / "a.php"
    target.write_text(f"<?php\n{source}\n")
    findings = scan_file(target, CHECKLIST)
    assert {f.line: [c.origin() for c in f.children] for f in findings} == expected


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
    real_open = open

    def failing_open(path, mode):
        if os.path.basename(path) == "lib.php":
            raise PermissionError("denied")
        return real_open(path, mode)

    monkeypatch.setattr(scanner, "open", failing_open, raising=False)
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
    real_open = open

    def failing_open(path, mode):
        reads[os.path.basename(path)] += 1
        if os.path.basename(path) == lib_name:
            raise PermissionError("denied")
        return real_open(path, mode)

    monkeypatch.setattr(scanner, "open", failing_open, raising=False)
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

    def counting_tokenize(source):
        lexed[source] += 1
        return tokenize(source)

    monkeypatch.setattr(scanner, "tokenize", counting_tokenize)
    result = scan_project(tmp_path, CHECKLIST)
    assert result.files_scanned == 7
    library = (tmp_path / lib_dir / "shared.php").read_text()
    assert lexed.pop(library) == lib_lexes
    assert sorted(lexed.values()) == [1] * 6


def test_a_followed_include_takes_one_abspath(tmp_path, monkeypatch):
    shared_library_tree(tmp_path, "lib", pages=5)
    calls = Counter()
    abspath = os.path.abspath

    def counting_abspath(path):
        calls[path] += 1
        return abspath(path)

    monkeypatch.setattr(os.path, "abspath", counting_abspath)
    scan_project(tmp_path, CHECKLIST)
    # one for the library's own page scan, and one per page that includes it
    assert calls[str(tmp_path / "lib" / "shared.php")] == 1 + 5


def test_lexer_diagnostics_are_noted_once_per_lex(tmp_path):
    page = tmp_path / "heredoc.php"
    page.write_text('<?php\n$a = <<<EOT\nhello\necho $_GET["x"];\n')
    ctx = ScanContext()
    assert scan_file(page, CHECKLIST, ctx) == []
    assert ctx.diagnostics == [f"{page}:2: unterminated heredoc"]
    # a library after its includers is lexed once, and noted once; its walk
    # noted nothing, so later pages replay it
    write_tree(tmp_path / "app", {"zlib/open.php": "<?php\n$v = 'x';\necho 'open;\n"})
    for n in range(3):
        write_tree(tmp_path / "app", {f"pages/p{n}.php": "<?php\ninclude '../zlib/open.php';\n"})
    result = scan_project(tmp_path / "app", CHECKLIST)
    assert result.files_scanned == 4
    assert result.diagnostics == [f"{tmp_path / 'app' / 'zlib' / 'open.php'}:3: unterminated string literal"]


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


def count_include_walks(monkeypatch):
    """Walks per display path of files entered through an include."""
    walks = Counter()
    walk = scanner._walk

    def counting_walk(stream, lines, display_path, ctx, checklist):
        if len(ctx.file_stack) > 1:
            walks[display_path] += 1
        return walk(stream, lines, display_path, ctx, checklist)

    monkeypatch.setattr(scanner, "_walk", counting_walk)
    return walks


strip = lambda fs: [(f.file, f.line, f.line_text, f.category, f.children) for f in fs]


def test_include_target_is_walked_once_per_entering_state(tmp_path, monkeypatch):
    shared_library_tree(tmp_path, "lib", pages=6)
    walks = count_include_walks(monkeypatch)
    result = scan_project(tmp_path, CHECKLIST)
    assert walks == {str(tmp_path / "lib" / "shared.php"): 1}
    assert strip(result.findings) == strip(independent_scans(tmp_path))


def test_include_target_is_walked_once_per_distinct_state(tmp_path, monkeypatch):
    shared_library_tree(tmp_path, "lib", pages=6)
    for n in (0, 2, 4):
        write_tree(tmp_path, {f"pages/page{n}.php":
                              "<?php\n$v = $_GET['v'];\nrequire_once '../lib/shared.php';\necho $q;\n"})
    walks = count_include_walks(monkeypatch)
    result = scan_project(tmp_path, CHECKLIST)
    assert walks == {str(tmp_path / "lib" / "shared.php"): 2}
    assert strip(result.findings) == strip(independent_scans(tmp_path))
    assert (str(tmp_path / "lib" / "shared.php"), 3) in {(f.file, f.line) for f in result.findings}


def test_replayed_include_findings_are_distinct_and_numbered(tmp_path):
    # the library binds nothing, so each include enters it in the same state
    write_tree(tmp_path, {"lib.php": "<?php\necho $_GET['a'];\necho $x;\n",
                          "page.php": "<?php\ninclude 'lib.php';\ninclude 'lib.php';\ninclude 'lib.php';\n"})
    findings = scan_file(tmp_path / "page.php", CHECKLIST)
    assert [f.number for f in findings] == [1, 2, 3, 4, 5, 6]
    assert len({id(f) for f in findings}) == 6
    assert [f.key() for f in findings] == [f.key() for f in findings[:2]] * 3
    # with a shared cache, a replay shares findings that no caller can renumber
    cache = {}
    for f in scan_file(tmp_path / "page.php", CHECKLIST, ScanContext(cache)):
        with pytest.raises(AttributeError):
            f.number = 7
    assert [f.number for f in scan_file(tmp_path / "page.php", CHECKLIST, ScanContext(cache))] == [0] * 6


def test_include_cycle_cut_is_noted_with_a_shared_cache(tmp_path):
    write_tree(tmp_path, {
        "lib/l.php": "<?php\n$a = $_GET['a'];\ninclude 'm.php';\n",
        "lib/m.php": "<?php\necho $a;\ninclude 'l.php';\n",
        "p.php": "<?php\ninclude 'lib/l.php';\n",
        "q.php": "<?php\ninclude 'lib/m.php';\n",
    })
    cache = {}
    for page in ("p.php", "q.php"):
        shared, fresh = ScanContext(cache), ScanContext()
        assert scan_file(tmp_path / page, CHECKLIST, shared) == scan_file(tmp_path / page, CHECKLIST, fresh)
        assert shared.diagnostics == fresh.diagnostics
    assert shared.diagnostics == [f"{tmp_path / 'lib' / 'l.php'}: include cycle cut at m.php"]


def test_walk_is_not_replayed_while_a_file_it_entered_is_open(tmp_path):
    write_tree(tmp_path, {
        "lib/l.php": "<?php\ninclude 'm.php';\n",
        "lib/m.php": "<?php\necho $_GET['m'];\n",
        "p.php": "<?php\ninclude 'lib/l.php';\n",
    })
    cache = {}
    scan_file(tmp_path / "p.php", CHECKLIST, ScanContext(cache))
    # l.php as m.php's include target: its stored walk entered m.php
    shared, fresh = ScanContext(cache), ScanContext()
    for ctx in (shared, fresh):
        ctx.file_stack.append(str(tmp_path / "lib" / "m.php"))
    assert scan_file(tmp_path / "lib" / "l.php", CHECKLIST, shared) == []
    assert scan_file(tmp_path / "lib" / "l.php", CHECKLIST, fresh) == []
    assert shared.diagnostics == fresh.diagnostics == [
        f"{tmp_path / 'lib' / 'l.php'}: include cycle cut at m.php"]


@pytest.mark.parametrize("first, second", [
    ("", "if ($a) {"),                                            # scopes differ
    ("function g() {", "function g() { $v = $_GET['v'];"),       # frames differ
    ("$v = 'clean';", "$v = $_GET['v'];"),                        # bindings differ
])
def test_walks_are_kept_apart_by_entering_state(tmp_path, monkeypatch, first, second):
    write_tree(tmp_path, {"lib.php": "<?php\necho $v;\n",
                          "a.php": f"<?php\n{first}\ninclude 'lib.php';\n",
                          "b.php": f"<?php\n{second}\ninclude 'lib.php';\n"})
    walks = count_include_walks(monkeypatch)
    cache = {}
    for page in ("a.php", "b.php"):
        shared, fresh = ScanContext(cache), ScanContext()
        assert scan_file(tmp_path / page, CHECKLIST, shared) == scan_file(tmp_path / page, CHECKLIST, fresh)
        assert shared.snapshot() == fresh.snapshot()
    # each state walked once with the shared cache and once with a fresh context
    assert walks[str(tmp_path / "lib.php")] == 4


def test_walks_are_kept_apart_by_display_path(tmp_path, monkeypatch):
    write_tree(tmp_path, {"lib.php": "<?php\necho $_GET['a'];\n", "page.php": "<?php\ninclude 'lib.php';\n"})
    monkeypatch.chdir(tmp_path)
    cache = {}
    for page in (tmp_path / "page.php", Path("page.php")):
        assert [f.file for f in scan_file(page, CHECKLIST, ScanContext(cache))] == [str(page.parent / "lib.php")]


LIBS = 3
_var = st.integers(0, 2).map(lambda n: f"$v{n}")
_target = st.sampled_from([*range(LIBS)] * 3 + [None])  # None: a missing file
_include = st.tuples(st.just("include"), _target,
                     st.sampled_from(["include '{}';", "require_once('{}');"]))
_plain = st.one_of(
    _var.map(lambda v: f"{v} = $_GET['k'];"),
    _var.map(lambda v: f"{v} = 'clean';"),
    _var.map(lambda v: f"{v} = htmlspecialchars($_COOKIE['k']);"),
    _var.map(lambda v: f"echo {v};"),
    _var.map(lambda v: f"mysql_query({v});"),
    st.sampled_from(["function g() {", "if ($v0) {", "}"]),
)
_including = st.one_of(_include, st.tuples(st.just("function"), _include, _var))
_page = st.lists(st.one_of(_plain, _including), max_size=6)
# libraries include less often, so that fewer of their walks cut a cycle
_library = st.lists(st.one_of(_plain, _plain, _plain, _including), max_size=6)


def _render(statement, in_lib):
    if isinstance(statement, str):
        return statement
    if statement[0] == "function":
        return f"function f() {{ {_render(statement[1], in_lib)} echo {statement[2]}; }}"
    _, target, form = statement
    name = "gone.php" if target is None else f"l{target}.php"
    return form.format(name if in_lib else f"lib/{name}")


@settings(max_examples=200, deadline=None)
@given(pages=st.lists(_page, min_size=1, max_size=3), libs=st.lists(_library, min_size=LIBS, max_size=LIBS))
def test_shared_cache_scans_equal_fresh_scans(pages, libs):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        # each page twice, so the second copy enters its includes as the first did
        files = {f"p{n}{copy}.php": page for n, page in enumerate(pages) for copy in "ab"}
        files.update({f"lib/l{n}.php": lib for n, lib in enumerate(libs)})
        write_tree(root, {rel: "<?php\n" + "\n".join(_render(s, rel.startswith("lib/")) for s in body) + "\n"
                          for rel, body in files.items()})
        cache = {}
        for path in sorted(root.rglob("*.php"), key=lambda p: p.relative_to(root).as_posix()):
            shared, fresh = ScanContext(cache), ScanContext()
            assert scan_file(path, CHECKLIST, shared) == scan_file(path, CHECKLIST, fresh)
            assert shared.diagnostics == fresh.diagnostics
            assert shared.snapshot() == fresh.snapshot()
        assert strip(scan_project(root, CHECKLIST).findings) == strip(independent_scans(root))


def count_token_reads(monkeypatch):
    """Reads by index of the token lists (kinds, lexemes and lines, all
    counted as "reads") of the scans run after it, and the token count of
    the last file lexed."""
    reads = Counter()

    class CountingList(list):
        def __getitem__(self, index):
            reads["reads"] += 1
            return super().__getitem__(index)

    def counting_tokenize(source):
        stream = tokenize(source)
        stream.kinds = CountingList(stream.kinds)
        stream.lexemes = CountingList(stream.lexemes)
        stream.lines = CountingList(stream.lines)
        reads["tokens"] = len(stream.kinds)
        return stream

    monkeypatch.setattr(scanner, "tokenize", counting_tokenize)
    return reads


@pytest.mark.parametrize("source", [
    "".join(f"$a{i} = (" for i in range(2000)) + "$_GET['x']" + ")" * 2000 + ";\necho $a0;\n",
    "".join(f"$a{i} = (\n" for i in range(2000)),
    "echo (\n" * 2000,
    "mysql_query(" + "".join(f"$a{i}[" for i in range(2000)) + "$_GET['x']" + "]" * 2000 + " = $q);\n",
    "mysql_query($o" + "->p" * 2000 + " = $q);\n",
], ids=["nested-assignments", "unclosed-assignments", "unclosed-echo", "nested-index-targets",
        "property-chain-target"])
def test_each_token_is_read_a_bounded_number_of_times(tmp_path, monkeypatch, source):
    # each expression is evaluated once, however deep its groups nest and
    # whether or not they close
    reads = count_token_reads(monkeypatch)
    target = tmp_path / "deep.php"
    target.write_text("<?php\n" + source)
    scan_file(target, CHECKLIST)
    assert reads["tokens"] > 4000
    assert 0 < reads["reads"] < 10 * reads["tokens"]


def children_of(findings):
    return {f.line: [(c.variable, c.origin()) for c in f.children] for f in findings}


@pytest.mark.parametrize("source, expected", [
    # a read sees the assignments whose right-hand side ended before it
    ("echo ($c = 'lit'), $c;", {}),
    ("echo ($c = $_GET['a']), $c;", {2: [("$_GET", "superglobal $_GET"), ("$c", "superglobal $_GET")]}),
    # nested assignments bind innermost first
    ("$a = ($b = $_GET['x']) . $b;\necho $a;", {3: [("$a", "superglobal $_GET")]}),
    # and a read before the assignment's right-hand side ends sees the
    # target as it was: the query's $b carries no fgets
    ("$b = mysql_query($b) . fgets($f);", {2: [("$b", "unresolved")]}),
    ("$b = fgets($f) . mysql_query($b);", {2: [("$b", "unresolved")]}),
], ids=["clean-then-read", "tainted-then-read", "innermost-first", "read-before-bind", "source-before-read"])
def test_a_read_sees_the_assignments_that_ended_before_it(tmp_path, source, expected):
    target = tmp_path / "s.php"
    target.write_text(f"<?php\n{source}\n")
    assert children_of(scan_file(target, CHECKLIST)) == expected


@pytest.mark.parametrize("source, expected", [
    # ?> ends every open node, a call sink's group included
    ("mysql_query($x ?>\n<?php echo $_GET['a'];",
     {2: [("$x", "unresolved")], 3: [("$_GET", "superglobal $_GET")]}),
    ("$v = htmlspecialchars($_GET['a'] ?>\n<?php echo $v;", {}),
    # and so does the end of the file
    ("mysql_query(\n$_GET['q']", {2: [("$_GET", "superglobal $_GET")]}),
    ("echo ($x . (\n$_POST['p']", {2: [("$x", "unresolved"), ("$_POST", "superglobal $_POST")]}),
], ids=["close-tag-ends-call", "close-tag-binds", "eof-ends-call", "eof-ends-echo"])
def test_close_tag_and_end_of_file_end_every_open_node(tmp_path, source, expected):
    target = tmp_path / "u.php"
    target.write_text(f"<?php\n{source}\n")
    assert children_of(scan_file(target, CHECKLIST)) == expected


@pytest.mark.parametrize("kind, seed", [("shared", 1), ("shared", 2), ("flat", 1), ("flat", 2)])
def test_benchmark_corpus_scans_to_its_planted_findings(repo_root, tmp_path, monkeypatch, kind, seed):
    # the benchmark's correctness check of its scan workloads, in process
    monkeypatch.syspath_prepend(str(repo_root / "perfbench"))
    import corpus

    tree = corpus.generate(kind, seed)
    tree.write(str(tmp_path))
    found = {}
    for f in scan_project(tmp_path, CHECKLIST).findings:
        found.setdefault(Path(f.file).relative_to(tmp_path).as_posix(), set()).add((f.line, f.category))
    assert corpus.check_scan(tree, found) == (len(tree.planted), 0)


def findings_of(findings):
    return [(f.line, f.category, [(c.variable, c.origin()) for c in f.children]) for f in findings]


@pytest.mark.parametrize("source, expected", [
    # a , ends a one-operand construct, as it ends an assignment
    ("<?php\nf($x = print $a, $b);\necho $x;\n",
     [(2, "CrossSiteScripting", [("$a", "unresolved")]), (3, "CrossSiteScripting", [("$x", "unresolved")])]),
    ("<?php\nf(include $a, $b);\n", [(2, "FileInclusion", [("$a", "unresolved")])]),
    ("<?php\nf(require_once $a, $b);\n", [(2, "FileInclusion", [("$a", "unresolved")])]),
    # echo keeps its comma list, past a print that the , ends
    ("<?php\necho $a = print $b, $c;\n",
     [(2, "CrossSiteScripting", [("$b", "unresolved"), ("$c", "unresolved")]),
      (2, "CrossSiteScripting", [("$b", "unresolved")])]),
    ("<?php\necho $a, $b;\n", [(2, "CrossSiteScripting", [("$a", "unresolved"), ("$b", "unresolved")])]),
    ("<p><?= $a, $b ?></p>\n", [(1, "CrossSiteScripting", [("$a", "unresolved"), ("$b", "unresolved")])]),
], ids=["print-in-call", "include-in-call", "require-in-call", "print-in-echo", "echo-list", "short-echo-list"])
def test_a_comma_ends_a_one_operand_construct(tmp_path, source, expected):
    target = tmp_path / "c.php"
    target.write_text(source)
    assert findings_of(scan_file(target, CHECKLIST)) == expected


def test_sink_after_a_heredoc_closed_by_a_bracket_is_found(tmp_path):
    target = tmp_path / "h.php"
    target.write_text("<?php\n$a = [<<<EOT\nx\nEOT];\necho $_GET['a'];\n")
    assert findings_of(scan_file(target, CHECKLIST)) == [
        (5, "CrossSiteScripting", [("$_GET", "superglobal $_GET")])]


@pytest.mark.parametrize("newline", ["\n", "\r", "\r\n"], ids=["lf", "cr", "crlf"])
@pytest.mark.parametrize("ending", ["", "\n"], ids=["unterminated-last-line", "terminated-last-line"])
def test_finding_line_text_is_its_line_without_terminator(tmp_path, newline, ending):
    lines = ["<?php", "", "  echo $_GET['a'];  // one", "$b = 1;", "print $_POST['p'];"]
    target = tmp_path / "t.php"
    target.write_bytes((newline.join(lines) + ending.replace("\n", newline)).encode())
    assert [(f.line, f.line_text) for f in scan_file(target, CHECKLIST)] == [(3, lines[2]), (5, lines[4])]


def file_list_tree(root):
    """Every page echoes one superglobal, so each page scanned gives one
    finding under its display path."""
    page = "<?php\necho $_GET['k'];\n"
    write_tree(root, {rel: page for rel in (
        "a.php", "a-b/x.php", "a/y.php", "sub/c.php", "sub/deeper/d.php", "x.php/inner.php",
        ".hidden.php")})
    write_tree(root, {"sub/Z.PHP": page, "b.php.txt": page, "notes.txt": "x"})
    (root / "link.php").symlink_to("a.php")
    (root / "linkdir").symlink_to("sub", target_is_directory=True)
    (root / "linkdir.php").symlink_to("sub", target_is_directory=True)
    (root / "dangling.php").symlink_to("missing.php")


# in the order of the root-relative path strings, so a-b/ sorts before a/;
# a directory named *.php and a symlink named *.php are scanned as files,
# and a symlinked directory is not entered
FILE_LIST = [".hidden.php", "a-b/x.php", "a.php", "a/y.php", "dangling.php", "link.php",
             "linkdir.php", "sub/c.php", "sub/deeper/d.php", "x.php", "x.php/inner.php"]
UNREADABLE = {"dangling.php": "[Errno 2] No such file or directory",
              "linkdir.php": "[Errno 21] Is a directory", "x.php": "[Errno 21] Is a directory"}


@pytest.mark.parametrize("root_form, prefix", [
    ("absolute", "{abs}/"), ("absolute/", "{abs}/"), ("path", "{abs}/"),
    ("root", "root/"), ("root/", "root/"), ("./root", "root/"), ("root//", "root/"), (".", ""),
])
def test_scan_project_file_list(tmp_path, monkeypatch, root_form, prefix):
    root = tmp_path / "root"
    file_list_tree(root)
    monkeypatch.chdir(root if root_form == "." else tmp_path)
    arg = {"absolute": str(root), "absolute/": f"{root}/", "path": root}.get(root_form, root_form)
    prefix = prefix.format(abs=root)
    pages = []
    scan = scanner.scan_file

    def recording_scan_file(path, checklist, ctx=None):
        if not ctx.file_stack:
            pages.append(str(path))
        return scan(path, checklist, ctx)

    monkeypatch.setattr(scanner, "scan_file", recording_scan_file)
    result = scan_project(arg, CHECKLIST)
    assert pages == [prefix + rel for rel in FILE_LIST]
    readable = [prefix + rel for rel in FILE_LIST if rel not in UNREADABLE]
    assert [(f.number, f.file, f.line) for f in result.findings] == [
        (n, path, 2) for n, path in enumerate(readable, start=1)]
    assert result.files_scanned == len(readable)
    assert result.diagnostics == [
        f"skipped {prefix}{rel}: {UNREADABLE[rel]}: '{prefix}{rel}'" for rel in FILE_LIST if rel in UNREADABLE]


def test_scan_project_runs_agree_and_keep_stored_walks(tmp_path, monkeypatch):
    # the library binds nothing, so every page enters it in one state: the
    # first walk is stored and the other pages replay it
    write_tree(tmp_path, {"zlib.php": "<?php\necho $_GET['a'];\necho $x;\n"})
    write_tree(tmp_path, {f"p{i}.php": "<?php\ninclude 'zlib.php';\necho $_POST['p'];\n" for i in range(4)})
    targets = []

    class RecordingTarget(scanner.IncludeTarget):
        def __init__(self, *args):
            super().__init__(*args)
            targets.append(self)

    monkeypatch.setattr(scanner, "IncludeTarget", RecordingTarget)
    first = scan_project(tmp_path, CHECKLIST)
    walks = [walk for target in targets for walk in target.walks.values()]
    stored = [(f.number, f.file, f.line, f.line_text, f.category, f.children) for walk in walks for f in walk.findings]
    second = scan_project(tmp_path, CHECKLIST)
    strip = lambda r: [(f.number, f.file, f.line, f.line_text, f.category, f.children) for f in r.findings]
    assert strip(first) == strip(second)
    assert [(n, os.path.basename(file)) for n, file, *_ in strip(first)] == [
        (1, "zlib.php"), (2, "zlib.php"), (3, "p0.php"), (4, "p1.php"), (5, "p2.php"), (6, "p3.php")]
    # the stored walk was made before the first run numbered its results,
    # and neither run changed it
    assert [(n, os.path.basename(file), line) for n, file, line, *_ in stored] == [
        (0, "zlib.php", 2), (0, "zlib.php", 3)]
    assert [(f.number, f.file, f.line, f.line_text, f.category, f.children)
            for walk in walks for f in walk.findings] == stored
