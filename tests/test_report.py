import json
from datetime import datetime, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phpwarden.checklist import default_checklist
from phpwarden.config_audit import Misconfiguration
from phpwarden.report import (
    Report,
    build_report,
    parse_structured,
    render,
    render_structured,
    write_report,
)
from phpwarden.scanner import Finding, ScanResult, TaintedParam

FIXED_CLOCK = lambda: datetime(2014, 3, 2, 10, 30, 0)


def sample_scan():
    child = TaintedParam("$id", "superglobal", "$_GET", 4)
    finding = Finding(
        number=1,
        file="app/page.php",
        line=7,
        line_text="mysql_query($q);",
        category="SqlInjection",
        children=(child,),
    )
    return ScanResult(findings=[finding], files_scanned=3, elapsed=0.1234)


def sample_audits():
    return [Misconfiguration("display_errors", "On", "Off", "leaks stack traces")]


def sample_report():
    return build_report(sample_scan(), sample_audits(), "demo", clock=FIXED_CLOCK)


def test_build_report_copies_inputs():
    report = sample_report()
    assert report.application_name == "demo"
    assert report.scan_timestamp == FIXED_CLOCK()
    assert report.files_scanned == 3
    assert report.findings[0].category == "SqlInjection"
    assert report.misconfigurations[0].name == "display_errors"


def test_render_four_labeled_fields_per_finding():
    text = render(sample_report())
    assert "VulnerabilityNumber : 1" in text
    assert "Vulnerability FileName : app/page.php" in text
    assert "VulnerabilityName : SQL Injection" in text
    assert "Vulnerable Line : 7: mysql_query($q);" in text


def test_render_field_order_within_finding():
    text = render(sample_report())
    labels = [
        "VulnerabilityNumber",
        "Vulnerability FileName",
        "VulnerabilityName",
        "Vulnerable Line",
    ]
    positions = [text.index(lbl) for lbl in labels]
    assert positions == sorted(positions)


def test_render_header_block():
    text = render(sample_report())
    assert text.startswith("VULNERABILITY DETAILS")
    assert "Application : demo" in text
    assert "Scan Date : 2014-03-02 10:30:00" in text
    assert "Files Scanned : 3" in text
    assert "Elapsed : 0.123s" in text


def test_render_tainted_parameter_children():
    text = render(sample_report())
    assert "    tainted parameter $id from superglobal $_GET (line 4)" in text


def test_render_configuration_section():
    text = render(sample_report())
    assert "CONFIGURATION ISSUES" in text
    assert "Setting : display_errors" in text
    assert "Current Value : On" in text
    assert "Recommended Value : Off" in text
    assert "Reason : leaks stack traces" in text


def test_render_zero_findings_message():
    empty = ScanResult(findings=[], files_scanned=2, elapsed=0.01)
    report = build_report(empty, [], "clean", clock=FIXED_CLOCK)
    text = render(report)
    assert "No vulnerabilities detected." in text
    assert "VulnerabilityNumber" not in text
    assert "CONFIGURATION ISSUES" not in text


def test_render_display_names_cover_all_categories():
    from phpwarden.checklist import CATEGORIES, DISPLAY_NAMES

    assert set(DISPLAY_NAMES) == set(CATEGORIES)


def test_fixed_clock_renders_are_byte_identical():
    a = build_report(sample_scan(), sample_audits(), "demo", clock=FIXED_CLOCK)
    b = build_report(sample_scan(), sample_audits(), "demo", clock=FIXED_CLOCK)
    assert render(a) == render(b)
    assert render_structured(a) == render_structured(b)


def test_distinct_findings_render_distinctly():
    base = sample_report()
    other = sample_report()
    other.findings[0] = other.findings[0]._replace(line=8)
    assert render(base) != render(other)


def test_structured_round_trip_identity():
    report = sample_report()
    assert parse_structured(render_structured(report)) == report


def test_structured_round_trip_empty_report():
    report = Report("x", FIXED_CLOCK(), 0, 0.0)
    assert parse_structured(render_structured(report)) == report


REPORT_FIELDS = ("application_name", "scan_timestamp", "files_scanned", "elapsed", "findings", "misconfigurations")


def as_dict(value):
    """value as dataclasses.asdict would give it: the report, and each
    namedtuple in it, a dict of its fields in order, recursively."""
    if isinstance(value, Report):
        return {name: as_dict(getattr(value, name)) for name in REPORT_FIELDS}
    if hasattr(value, "_fields"):
        return {name: as_dict(v) for name, v in zip(value._fields, value)}
    if isinstance(value, (list, tuple)):
        return type(value)(as_dict(v) for v in value)
    return value


def test_structured_body_is_the_json_of_asdict():
    children = (TaintedParam("$id", "superglobal", "$_GET", 4), TaintedParam("$q", "unresolved", "", 5))
    findings = [Finding(n, f"app/p{n}.php", 7 * n, 'echo "<b>" . $x;', "CrossSiteScripting", children)
                for n in (1, 2)]
    report = Report("demo \u00e9", FIXED_CLOCK(), 2, 0.25, findings,
                    sample_audits() + [Misconfiguration("allow_url_include", "1", "0", "remote code")])
    doc = as_dict(report)
    doc["scan_timestamp"] = report.scan_timestamp.isoformat()
    assert render_structured(report) == "phpwarden-report 1\n" + json.dumps(doc, indent=2) + "\n"


def json_of_asdict(report):
    doc = as_dict(report)
    doc["scan_timestamp"] = report.scan_timestamp.isoformat()
    return "phpwarden-report 1\n" + json.dumps(doc, indent=2) + "\n"


# quotes, backslashes, control, non-ASCII, non-BMP and lone surrogate code points
texts = st.text(st.one_of(st.characters(), st.sampled_from(
    ['"', "\\", "\x00", "\x1f", "\x7f", "\u00e9", "\u2028", "\U0001f600", "\ud800", "\udfff"])), max_size=12)
lines = st.integers(min_value=0, max_value=10**12)
children = st.builds(TaintedParam, texts, st.sampled_from(["superglobal", "source function", "unresolved"]),
                     texts, lines)
findings = st.builds(Finding, lines, texts, lines, texts, st.sampled_from(["CrossSiteScripting", "SqlInjection"]),
                     st.lists(children, max_size=4).map(tuple))
reports = st.builds(
    Report, texts, st.datetimes(timezones=st.sampled_from([None, timezone.utc])), lines,
    st.one_of(st.sampled_from([0.0, 1e-07, 123456.789, 0.1 + 0.2, 1e22]),
              st.floats(allow_nan=False, allow_infinity=False)),
    st.lists(findings, max_size=4),
    st.lists(st.builds(Misconfiguration, texts, texts, texts, texts), max_size=3))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(reports)
def test_structured_body_is_the_json_of_asdict_for_any_report(report):
    assert render_structured(report) == json_of_asdict(report)


def test_structured_form_is_not_written_by_the_pure_python_json_encoder(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("json's pure-Python encoder was called")

    report = sample_report()
    expected = json_of_asdict(report)
    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
    # the control: an encoder that is not one-shot is the pure-Python one on
    # every version (json.dumps with indent is too before 3.13, not since)
    with pytest.raises(AssertionError, match="pure-Python"):
        "".join(json.JSONEncoder(indent=2).iterencode({"a": 1}))
    assert render_structured(report) == expected


def test_parse_structured_rejects_bad_header():
    with pytest.raises(ValueError, match="not a phpwarden-report"):
        parse_structured("something else\n{}")


def sample_body(edit=None) -> dict:
    """The JSON body of the sample report, edited in place by edit."""
    doc = json.loads(render_structured(sample_report()).partition("\n")[2])
    if edit is not None:
        edit(doc)
    return doc


@pytest.mark.parametrize("body, message", [
    ({}, "report lacks field 'findings'"),
    ([], "report body is a JSON list, not an object"),
    (sample_body(lambda d: d["findings"][0].pop("line")), "not a report: .*'line'"),
    (sample_body(lambda d: d.update(elapsed="x")), r"report field 'elapsed' has the wrong type \(str\)"),
    (sample_body(lambda d: d.update(elapsed=True)), r"report field 'elapsed' has the wrong type \(bool\)"),
    (sample_body(lambda d: d.update(files_scanned=1.5)), "report field 'files_scanned'"),
    (sample_body(lambda d: d.update(application_name=7)), "report field 'application_name'"),
    (sample_body(lambda d: d.update(findings={})), "report field 'findings'"),
    (sample_body(lambda d: d.update(misconfigurations="none")), "report field 'misconfigurations'"),
    (sample_body(lambda d: d["findings"][0].update(number="7")), "report field 'number'"),
    (sample_body(lambda d: d["findings"][0].update(line=True)), "report field 'line'"),
    (sample_body(lambda d: d["findings"][0].update(file=None)), "report field 'file'"),
    (sample_body(lambda d: d["findings"][0].update(children="x")), "report field 'children'"),
    (sample_body(lambda d: d["findings"][0]["children"][0].update(line="3")), "report field 'line'"),
    (sample_body(lambda d: d["findings"][0]["children"][0].update(source_name=[])), "report field 'source_name'"),
    (sample_body(lambda d: d["misconfigurations"][0].update(current=1)), "report field 'current'"),
    ("not json", r"^report body is not JSON: Expecting value: line 1 column 1 \(char 0\)$"),
    (sample_body(lambda d: d["findings"][0].update(severity="high")),
     "^not a report: finding 1 has unknown field 'severity'$"),
    (sample_body(lambda d: d["findings"][0]["children"][0].pop("source_kind")),
     "^not a report: child 1 of finding 1 lacks field 'source_kind'$"),
    (sample_body(lambda d: d["findings"].append(5)), "^not a report: finding 2 is a JSON int, not an object$"),
    (sample_body(lambda d: d["misconfigurations"][0].pop("rationale")),
     "^not a report: misconfiguration 1 lacks field 'rationale'$"),
], ids=["empty-object", "list", "finding-without-line", "elapsed-str", "elapsed-bool", "files-scanned-float",
        "application-name-int", "findings-object", "misconfigurations-str", "number-str", "line-bool",
        "file-null", "children-str", "child-line-str", "child-source-name-list", "current-int",
        "not-json", "finding-unknown-field", "child-without-source-kind", "finding-int",
        "misconfiguration-without-rationale"])
def test_parse_structured_rejects_a_body_that_is_not_a_report(body, message):
    # a str body is the text after the header as it stands, not JSON-encoded
    text = body if isinstance(body, str) else json.dumps(body)
    with pytest.raises(ValueError, match=message):
        parse_structured(f"phpwarden-report 1\n{text}\n")


def test_parse_structured_rejects_unknown_version():
    doc = render_structured(sample_report()).replace(
        "phpwarden-report 1", "phpwarden-report 99", 1
    )
    with pytest.raises(ValueError, match="version"):
        parse_structured(doc)


def test_parse_structured_names_a_header_without_a_version_number():
    doc = render_structured(sample_report()).replace("phpwarden-report 1", "phpwarden-report x", 1)
    with pytest.raises(ValueError, match=r"^report header 'phpwarden-report x' has no version number$"):
        parse_structured(doc)


def test_parse_structured_names_a_timestamp_that_is_not_iso():
    body = sample_body(lambda d: d.update(scan_timestamp="x"))
    with pytest.raises(ValueError, match=r"^report field 'scan_timestamp' is not an ISO date and time: 'x'$"):
        parse_structured(f"phpwarden-report 1\n{json.dumps(body)}\n")


def test_write_report_produces_both_files(tmp_path):
    report = sample_report()
    text_path, data_path = write_report(report, str(tmp_path / "out.txt"), render(report))
    assert text_path.endswith("out.txt")
    assert data_path.endswith("out.txt.data")
    with open(text_path) as fh:
        assert fh.read() == render(report)
    with open(data_path) as fh:
        assert parse_structured(fh.read()) == report


def test_admin_menu_report_matches_reference_fields(repo_root):
    # end to end: the bundled fixture rendered through the report layer
    from phpwarden.scanner import scan_project

    result = scan_project(repo_root / "fixtures/empldir_php4t", default_checklist())
    report = build_report(result, [], "empldir", clock=FIXED_CLOCK)
    text = render(report)
    assert "VulnerabilityNumber : 1" in text
    assert "VulnerabilityName : Cross-Site Scripting" in text
    assert "Vulnerable Line : 114:" in text
    assert "Vulnerable Line : 131:" in text
    assert "Vulnerable Line : 153:" in text
