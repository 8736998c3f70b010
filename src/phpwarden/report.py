"""Report assembly and rendering.

Two output forms share one Report value: a human-readable text layout and a
structured sidecar (version header line + JSON) that parses back to an
equal Report.  The clock is injected so repeated builds can be compared
byte for byte.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from datetime import datetime
from json.encoder import encode_basestring_ascii
from typing import TYPE_CHECKING, Callable

from .checklist import DISPLAY_NAMES
from .scanner import Finding, ScanResult, TaintedParam

if TYPE_CHECKING:
    from .config_audit import Misconfiguration

STRUCTURED_FORMAT = "phpwarden-report"
STRUCTURED_VERSION = 1


@dataclass
class Report:
    application_name: str
    scan_timestamp: datetime
    files_scanned: int
    elapsed: float
    findings: list[Finding] = field(default_factory=list)
    misconfigurations: list[Misconfiguration] = field(default_factory=list)


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
    each dataclass an object of its fields in order, the timestamp its ISO
    form.  Written directly, equal byte for byte to json.dumps(..., indent=2)
    of that value, whose indented encoder runs in pure Python: strings go
    through the C encode_basestring_ascii, numbers (elapsed is finite)
    through their repr, as json writes them."""
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


def _typed(obj):
    """obj, once each of its fields holds a value of that field's type (a
    value that is not a JSON object is left to the constructor's check)."""
    for key, value in obj.items() if isinstance(obj, dict) else ():
        if isinstance(value, bool) or not isinstance(value, _FIELD_TYPES.get(key, str)):
            raise ValueError(f"report field {key!r} has the wrong type ({type(value).__name__})")
    return obj


def parse_structured(text: str) -> Report:
    """Inverse of render_structured.  Raises ValueError on a bad header, an
    unsupported version, or a body that is not a report: not a JSON object,
    or one with a field missing, unknown, of the wrong type, or of the
    wrong shape."""
    from .config_audit import Misconfiguration  # a scan without --ini loads no config_audit

    header, _, body = text.partition("\n")
    parts = header.split()
    if len(parts) != 2 or parts[0] != STRUCTURED_FORMAT:
        raise ValueError(f"not a {STRUCTURED_FORMAT} document: {header!r}")
    if int(parts[1]) != STRUCTURED_VERSION:
        raise ValueError(f"unsupported report version {parts[1]}")
    doc = json.loads(body)
    if not isinstance(doc, dict):
        raise ValueError(f"report body is a JSON {type(doc).__name__}, not an object")
    try:
        findings = [
            Finding(**{**_typed(f), "children": tuple(TaintedParam(**_typed(c)) for c in f["children"])})
            for f in _typed(doc)["findings"]
        ]
        return Report(**{
            **doc,
            "scan_timestamp": datetime.fromisoformat(doc["scan_timestamp"]),
            "findings": findings,
            "misconfigurations": [Misconfiguration(**_typed(m)) for m in doc["misconfigurations"]],
        })
    except KeyError as exc:
        raise ValueError(f"report lacks field {exc}") from None
    except TypeError as exc:
        raise ValueError(f"not a report: {exc}") from None


def write_report(report: Report, out_path: str, text: str | None = None) -> tuple[str, str]:
    """Write the text form at out_path and the structured form alongside it
    (same name + `.data`).  Returns both paths.  text, when given, is
    render(report), already rendered by the caller."""
    text_path = out_path
    data_path = out_path + ".data"
    with open(text_path, "w", encoding="utf-8") as fh:
        fh.write(render(report) if text is None else text)
    with open(data_path, "w", encoding="utf-8") as fh:
        fh.write(render_structured(report))
    return text_path, data_path
