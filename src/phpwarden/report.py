"""Report assembly and rendering.

Two output forms share one Report value: a human-readable text layout and a
structured sidecar (version header line + JSON) that parses back to an
equal Report.  The clock is injected so repeated builds can be compared
byte for byte.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, is_dataclass
from datetime import datetime
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
    """Machine-readable form: `phpwarden-report 1` header line, then JSON."""
    header = f"{STRUCTURED_FORMAT} {STRUCTURED_VERSION}"
    return header + "\n" + json.dumps(_json_value(report), indent=2) + "\n"


def _json_value(value):
    """value as JSON data: each dataclass a dict of its fields in order, a
    datetime its ISO form.  Leaves are shared, not copied as `asdict` would."""
    if isinstance(value, (list, tuple)):
        return [_json_value(v) for v in value]
    if isinstance(value, datetime):
        return value.isoformat()
    if is_dataclass(value):
        return {f.name: _json_value(getattr(value, f.name)) for f in fields(value)}
    return value


def parse_structured(text: str) -> Report:
    """Inverse of render_structured.  Raises ValueError on a bad header or
    unsupported version."""
    from .config_audit import Misconfiguration  # a scan without --ini loads no config_audit

    header, _, body = text.partition("\n")
    parts = header.split()
    if len(parts) != 2 or parts[0] != STRUCTURED_FORMAT:
        raise ValueError(f"not a {STRUCTURED_FORMAT} document: {header!r}")
    if int(parts[1]) != STRUCTURED_VERSION:
        raise ValueError(f"unsupported report version {parts[1]}")
    doc = json.loads(body)
    findings = [
        Finding(**{**f, "children": tuple(TaintedParam(**c) for c in f["children"])})
        for f in doc["findings"]
    ]
    return Report(**{
        **doc,
        "scan_timestamp": datetime.fromisoformat(doc["scan_timestamp"]),
        "findings": findings,
        "misconfigurations": [Misconfiguration(**m) for m in doc["misconfigurations"]],
    })


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
