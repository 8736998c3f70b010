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
    assert cl.sink_index["echo"] == ("CrossSiteScripting",)
    assert cl.sink_index["print"] == ("CrossSiteScripting",)


def test_explicit_kinds():
    text = (
        "SqlInjection.sinks: mysql_query\n"
        "SqlInjection.sanitizers: addslashes\n"
        "SqlInjection.sources: $_GET, fgets\n"
    )
    cl = load_checklist(text)
    assert cl.sink_index["mysql_query"] == ("SqlInjection",)
    assert cl.sanitizer_index["addslashes"] == {"SqlInjection"}
    assert "fgets" in cl.sources
    assert "$_GET" in cl.sources


def test_names_case_folded_but_superglobals_kept():
    cl = load_checklist("CrossSiteScripting: ECHO\nSqlInjection.sources: $_GET\n")
    assert cl.sink_index["echo"] == ("CrossSiteScripting",)
    assert "$_GET" in cl.sources
    assert "$_get" not in cl.sources


def test_sink_in_multiple_categories():
    text = "SqlInjection: exec\nCommandInjection: exec\n"
    cl = load_checklist(text)
    # canonical CATEGORIES order, not file order
    assert cl.sink_index["exec"] == ("SqlInjection", "CommandInjection")


def test_comments_and_blanks_ignored():
    cl = load_checklist("# header\n\nCrossSiteScripting: echo\n")
    assert cl.sink_index["echo"]


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
    assert cl.sink_index["exec"] == ("SqlInjection",)
    assert cl.sanitizer_index["exec"] == {"CommandInjection"}


def test_all_sink_names_unions_categories():
    cl = load_checklist("SqlInjection: query\nCommandInjection: system\n")
    assert cl.sink_index.keys() == {"query", "system"}


def test_lookups_on_empty_checklist_object():
    cl = Checklist()
    assert "echo" not in cl.sink_index
    assert "x" not in cl.sanitizer_index
    assert "fgets" not in cl.sources


def test_default_checklist_covers_all_categories():
    cl = default_checklist()
    for category in CATEGORIES:
        assert cl.sinks.get(category), category
    assert cl.sink_index["echo"] == ("CrossSiteScripting",)
    assert set(cl.sink_index["exec"]) == {"SqlInjection", "CommandInjection"}
    assert "CrossSiteScripting" in cl.sanitizer_index["htmlspecialchars"]
    assert "$_COOKIE" in cl.sources


def test_lookups_read_one_index_built_with_the_checklist():
    cl = load_checklist(
        "CommandInjection: shell\nSqlInjection: Shell\n"
        "CrossSiteScripting.sanitizers: clean\nSqlInjection.sanitizers: CLEAN\n"
    )
    # canonical CATEGORIES order, not file order, and any case of the name
    assert cl.sink_index["shell"] == ("SqlInjection", "CommandInjection")
    assert cl.sanitizer_index["clean"] == {"CrossSiteScripting", "SqlInjection"}
    assert "clean" not in cl.sink_index and "shell" not in cl.sanitizer_index
    # built once: repeated lookups hand back the same objects
    assert cl.sink_index["shell"] is cl.sink_index["shell"]
    assert cl.sanitizer_index["clean"] is cl.sanitizer_index["clean"]
    # a caller can change no later answer through what a lookup gave it
    assert isinstance(cl.sink_index["shell"], tuple)
    assert isinstance(cl.sanitizer_index["clean"], frozenset)
