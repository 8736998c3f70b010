"""Report assembly and rendering.

Two output forms share one Report value: a human-readable text layout and a
structured sidecar (version header line + JSON) that parses back to an
equal Report.  The clock is injected so repeated builds can be compared
byte for byte.
"""

from __future__ import annotations

import json
from datetime import datetime
from json.encoder import encode_basestring_ascii

from .checklist import DISPLAY_NAMES
from .scanner import Finding, ScanResult, TaintedParam

STRUCTURED_FORMAT = "phpwarden-report"
STRUCTURED_VERSION = 1


class Report:
    """A scan's report, equal to another of equal fields.  findings and
    misconfigurations default to a fresh empty list each."""

    __slots__ = ("application_name", "scan_timestamp", "files_scanned", "elapsed", "findings",
                 "misconfigurations")

    def __init__(self, application_name: str, scan_timestamp: datetime, files_scanned: int, elapsed: float,
                 findings: list[Finding] | None = None,
                 misconfigurations: list[Misconfiguration] | None = None) -> None:
        self.application_name = application_name
        self.scan_timestamp = scan_timestamp
        self.files_scanned = files_scanned
        self.elapsed = elapsed
        self.findings = [] if findings is None else findings
        self.misconfigurations = [] if misconfigurations is None else misconfigurations

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in self.__slots__)

    def __repr__(self) -> str:
        return "Report(" + ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__) + ")"


def build_report(
    scan: ScanResult,
    audits: list[Misconfiguration],
    app_name: str,
    clock: Callable[[], datetime] = datetime.now,
) -> Report:
    return Report(
        application_name=app_name,
        scan_timestamp=clock(),
        files_scanned=scan.files_scanned,
        elapsed=scan.elapsed,
        findings=list(scan.findings),
        misconfigurations=list(audits),
    )


def render(report: Report) -> str:
    """Plain-text layout: header block, then four labeled lines per finding."""
    lines = [
        "VULNERABILITY DETAILS",
        "",
        f"Application : {report.application_name}",
        f"Scan Date : {report.scan_timestamp.strftime('%Y-%m-%d %H:%M:%S')}",
        f"Files Scanned : {report.files_scanned}",
        f"Elapsed : {report.elapsed:.3f}s",
        "",
    ]
    if not report.findings:
        lines.append("No vulnerabilities detected.")
        lines.append("")
    for f in report.findings:
        lines.append(f"VulnerabilityNumber : {f.number}")
        lines.append(f"Vulnerability FileName : {f.file}")
        lines.append(f"VulnerabilityName : {DISPLAY_NAMES.get(f.category, f.category)}")
        lines.append(f"Vulnerable Line : {f.line}: {f.line_text}")
        for child in f.children:
            lines.append(f"    tainted parameter {child.variable} from {child.origin()} (line {child.line})")
        lines.append("")
    if report.misconfigurations:
        lines.append("CONFIGURATION ISSUES")
        lines.append("")
        for m in report.misconfigurations:
            lines.append(f"Setting : {m.name}")
            lines.append(f"Current Value : {m.current}")
            lines.append(f"Recommended Value : {m.recommended}")
            lines.append(f"Reason : {m.rationale}")
            lines.append("")
    return "\n".join(lines)


def render_structured(report: Report) -> str:
    """Machine-readable form: `phpwarden-report 1` header line, then JSON:
    the report and each finding, tainted parameter and misconfiguration an
    object of its fields in order, the timestamp its ISO form.  Written
    directly, equal byte for byte to json.dumps(..., indent=2) of that
    value, whose indented encoder runs in pure Python: strings go through
    the C encode_basestring_ascii, numbers (elapsed is finite) through
    their repr, as json writes them."""
    q = encode_basestring_ascii
    findings = [
        f'    {{\n      "number": {f.number!r},\n      "file": {q(f.file)},\n'
        f'      "line": {f.line!r},\n      "line_text": {q(f.line_text)},\n'
        f'      "category": {q(f.category)},\n      "children": '
        + _array([f'        {{\n          "variable": {q(c.variable)},\n'
                  f'          "source_kind": {q(c.source_kind)},\n'
                  f'          "source_name": {q(c.source_name)},\n'
                  f'          "line": {c.line!r}\n        }}' for c in f.children], "      ")
        + "\n    }"
        for f in report.findings]
    misconfigurations = [
        f'    {{\n      "name": {q(m.name)},\n      "current": {q(m.current)},\n'
        f'      "recommended": {q(m.recommended)},\n      "rationale": {q(m.rationale)}\n    }}'
        for m in report.misconfigurations]
    return (f'{STRUCTURED_FORMAT} {STRUCTURED_VERSION}\n{{\n'
            f'  "application_name": {q(report.application_name)},\n'
            f'  "scan_timestamp": {q(report.scan_timestamp.isoformat())},\n'
            f'  "files_scanned": {report.files_scanned!r},\n  "elapsed": {report.elapsed!r},\n'
            f'  "findings": {_array(findings, "  ")},\n'
            f'  "misconfigurations": {_array(misconfigurations, "  ")}\n}}\n')


def _array(items: list[str], indent: str) -> str:
    """A JSON array of encoded items, laid out as json.dumps(indent=2) lays
    out one whose closing bracket stands at indent."""
    if not items:
        return "[]"
    return "[\n" + ",\n".join(items) + "\n" + indent + "]"


# the JSON type of each field of a report, a finding, a tainted parameter
# and a misconfiguration that is not a string; bool, though an int in
# Python, is neither a count nor a number
_FIELD_TYPES = {"files_scanned": int, "number": int, "line": int, "elapsed": (int, float),
                "findings": list, "children": list, "misconfigurations": list}


def _record(obj, what: str, fields: tuple[str, ...] = ()) -> dict:
    """obj, once it is a JSON object whose fields hold values of their types
    and, if fields is given, are exactly fields; what names obj in refusals."""
    if not isinstance(obj, dict):
        raise ValueError(f"not a report: {what} is a JSON {type(obj).__name__}, not an object")
    for key in fields:
        if key not in obj:
            raise ValueError(f"not a report: {what} lacks field {key!r}")
    for key, value in obj.items():
        if fields and key not in fields:
            raise ValueError(f"not a report: {what} has unknown field {key!r}")
        if isinstance(value, bool) or not isinstance(value, _FIELD_TYPES.get(key, str)):
            raise ValueError(f"report field {key!r} has the wrong type ({type(value).__name__})")
    return obj


def _timestamp(text: str) -> datetime:
    """The report's scan_timestamp, parsed from its ISO form."""
    try:
        return datetime.fromisoformat(text)
    except ValueError:
        raise ValueError(f"report field 'scan_timestamp' is not an ISO date and time: {text!r}") from None


def parse_structured(text: str) -> Report:
    """Inverse of render_structured.  Raises ValueError on a bad header, an
    unsupported version, or a body that is not a report: not JSON, not a
    JSON object, or one with a field missing, unknown, of the wrong type,
    or of the wrong shape, or a timestamp that is not ISO.  A refusal names
    a finding, child or misconfiguration by its 1-based position."""
    from .config_audit import Misconfiguration  # a scan without --ini loads no config_audit

    header, _, body = text.partition("\n")
    parts = header.split()
    if len(parts) != 2 or parts[0] != STRUCTURED_FORMAT:
        raise ValueError(f"not a {STRUCTURED_FORMAT} document: {header!r}")
    try:
        version = int(parts[1])
    except ValueError:
        raise ValueError(f"report header {header!r} has no version number") from None
    if version != STRUCTURED_VERSION:
        raise ValueError(f"unsupported report version {parts[1]}")
    try:
        doc = _record(json.loads(body), "report body")
    except json.JSONDecodeError as exc:
        raise ValueError(f"report body is not JSON: {exc}") from None
    try:
        findings = []
        for i, f in enumerate(doc["findings"], 1):
            what = f"finding {i}"
            children = tuple(TaintedParam(**_record(c, f"child {j} of {what}", TaintedParam._fields))
                             for j, c in enumerate(_record(f, what, Finding._fields)["children"], 1))
            findings.append(Finding(**{**f, "children": children}))
        misconfigurations = [Misconfiguration(**_record(m, f"misconfiguration {i}", Misconfiguration._fields))
                             for i, m in enumerate(doc["misconfigurations"], 1)]
        return Report(**{**doc, "scan_timestamp": _timestamp(doc["scan_timestamp"]),
                         "findings": findings, "misconfigurations": misconfigurations})
    except KeyError as exc:
        raise ValueError(f"report lacks field {exc}") from None
    except TypeError as exc:
        raise ValueError(f"not a report: {exc}") from None


def write_report(report: Report, out_path: str, text: str) -> tuple[str, str]:
    """Write text, which is render(report), at out_path and the structured
    form alongside it (same name + `.data`).  Returns both paths."""
    text_path = out_path
    data_path = out_path + ".data"
    with open(text_path, "w", encoding="utf-8") as fh:
        fh.write(text)
    with open(data_path, "w", encoding="utf-8") as fh:
        fh.write(render_structured(report))
    return text_path, data_path
