import pytest

from phpwarden.checklist import (
    CATEGORIES,
    Checklist,
    ChecklistError,
    default_checklist,
    load_checklist,
)


def test_shorthand_line_means_sinks():
    cl = load_checklist("CrossSiteScripting: echo, print\n")
    assert cl.sink_categories("echo") == ["CrossSiteScripting"]
    assert cl.sink_categories("print") == ["CrossSiteScripting"]


def test_explicit_kinds():
    text = (
        "SqlInjection.sinks: mysql_query\n"
        "SqlInjection.sanitizers: addslashes\n"
        "SqlInjection.sources: $_GET, fgets\n"
    )
    cl = load_checklist(text)
    assert cl.sink_categories("mysql_query") == ["SqlInjection"]
    assert cl.sanitizer_categories("addslashes") == {"SqlInjection"}
    assert cl.is_source_function("fgets")
    assert "$_GET" in cl.sources


def test_names_case_folded_but_superglobals_kept():
    cl = load_checklist("CrossSiteScripting: ECHO\nSqlInjection.sources: $_GET\n")
    assert cl.sink_categories("Echo") == ["CrossSiteScripting"]
    assert "$_GET" in cl.sources
    assert "$_get" not in cl.sources


def test_sink_in_multiple_categories():
    text = "SqlInjection: exec\nCommandInjection: exec\n"
    cl = load_checklist(text)
    # canonical CATEGORIES order, not file order
    assert cl.sink_categories("exec") == ["SqlInjection", "CommandInjection"]


def test_comments_and_blanks_ignored():
    cl = load_checklist("# header\n\nCrossSiteScripting: echo\n")
    assert cl.sink_categories("echo")


def test_missing_colon_reports_line_number():
    with pytest.raises(ChecklistError, match="line 2"):
        load_checklist("CrossSiteScripting: echo\njust words\n")


def test_unknown_category_rejected():
    with pytest.raises(ChecklistError, match="Nonsense"):
        load_checklist("Nonsense: foo\n")


def test_unknown_kind_rejected():
    with pytest.raises(ChecklistError, match="cleaners"):
        load_checklist("SqlInjection.cleaners: foo\n")


def test_empty_name_list_rejected():
    with pytest.raises(ChecklistError, match="line 1"):
        load_checklist("SqlInjection: , ,\n")


def test_empty_checklist_rejected():
    with pytest.raises(ChecklistError, match="no categories"):
        load_checklist("# only comments\n")


def test_sink_sanitizer_overlap_rejected():
    text = "SqlInjection.sinks: query\nSqlInjection.sanitizers: query\n"
    with pytest.raises(ChecklistError, match="both sink and sanitizer"):
        load_checklist(text)


def test_overlap_across_categories_is_fine():
    text = "SqlInjection.sinks: exec\nCommandInjection.sanitizers: exec\n"
    cl = load_checklist(text)
    assert cl.sink_categories("exec") == ["SqlInjection"]
    assert cl.sanitizer_categories("exec") == {"CommandInjection"}


def test_all_sink_names_unions_categories():
    cl = load_checklist("SqlInjection: query\nCommandInjection: system\n")
    assert cl.all_sink_names() == {"query", "system"}


def test_lookups_on_empty_checklist_object():
    cl = Checklist()
    assert cl.sink_categories("echo") == []
    assert cl.sanitizer_categories("x") == frozenset()
    assert not cl.is_source_function("fgets")


def test_default_checklist_covers_all_categories():
    cl = default_checklist()
    for category in CATEGORIES:
        assert cl.sinks.get(category), category
    assert cl.sink_categories("echo") == ["CrossSiteScripting"]
    assert set(cl.sink_categories("exec")) == {"SqlInjection", "CommandInjection"}
    assert "CrossSiteScripting" in cl.sanitizer_categories("htmlspecialchars")
    assert "$_COOKIE" in cl.sources


def test_lookups_read_one_index_built_with_the_checklist():
    cl = load_checklist(
        "CommandInjection: shell\nSqlInjection: Shell\n"
        "CrossSiteScripting.sanitizers: clean\nSqlInjection.sanitizers: CLEAN\n"
    )
    # canonical CATEGORIES order, not file order, and any case of the name
    assert cl.sink_categories("SHELL") == ["SqlInjection", "CommandInjection"]
    assert cl.sanitizer_categories("Clean") == {"CrossSiteScripting", "SqlInjection"}
    assert cl.sink_categories("clean") == [] and cl.sanitizer_categories("shell") == frozenset()
    # built once: repeated lookups hand back the same objects
    assert cl.all_sink_names() is cl.all_sink_names()
    assert cl.sanitizer_categories("clean") is cl.sanitizer_categories("CLEAN")
    # a caller that changes the list it got changes no later answer
    cl.sink_categories("shell").clear()
    assert cl.sink_categories("shell") == ["SqlInjection", "CommandInjection"]
