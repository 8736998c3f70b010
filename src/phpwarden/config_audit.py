"""php.ini hardening audit.

Parses ini text into a flat settings map and compares it against a policy
table.  A setting absent from the ini is judged at its engine default, so
"the file never mentions display_errors" still surfaces as a finding when
the default conflicts with the recommendation.
"""

from __future__ import annotations

import os
from collections import namedtuple

# Booleans in ini files come in many spellings; fold them all.
_BOOL_TOKENS = {
    "on": "On", "yes": "On", "true": "On", "1": "On",
    "off": "Off", "no": "Off", "false": "Off", "0": "Off",
}


def normalize_value(value: str) -> str:
    """Canonical form of an ini value: boolean spellings fold to On/Off,
    everything else is stripped of whitespace and surrounding quotes.
    Idempotent."""
    v = value.strip()
    if len(v) >= 2 and v[0] == v[-1] and v[0] in ("'", '"'):
        v = v[1:-1].strip()
    return _BOOL_TOKENS.get(v.lower(), v)


class SettingsMap:
    __slots__ = ("entries", "diagnostics")

    def __init__(self) -> None:
        self.entries: dict[str, str] = {}  # lowercased name -> normalized value
        self.diagnostics: list[str] = []

    def get(self, name: str) -> str | None:
        return self.entries.get(name.lower())


def parse_ini(text: str) -> SettingsMap:
    """Parse php.ini-style text: `key = value`, `;` comments, `[section]`
    headers ignored for keying, later duplicates override earlier ones.
    Never raises; unparseable lines become diagnostics."""
    settings = SettingsMap()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith(";") or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            continue
        if "=" not in line:
            settings.diagnostics.append(f"line {lineno}: not a key = value entry")
            continue
        key, _, value = line.partition("=")
        key = key.strip()
        if not key:
            settings.diagnostics.append(f"line {lineno}: empty setting name")
            continue
        value = value.split(";", 1)[0].strip()  # trailing comment
        settings.entries[key.lower()] = normalize_value(value)
    return settings


# default: the effective value when the ini does not mention the setting
PolicyRule = namedtuple("PolicyRule", "name recommended rationale default")

Misconfiguration = namedtuple("Misconfiguration", "name current recommended rationale")


def load_policy(text: str) -> list[PolicyRule]:
    """Policy files are ini-shaped: each `name = recommended` line may be
    preceded by `; rationale: ...` and `; default: ...` comments."""
    rules: list[PolicyRule] = []
    rationale = ""
    default = ""
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith(";"):
            body = line[1:].strip()
            if body.lower().startswith("rationale:"):
                rationale = body.partition(":")[2].strip()
            elif body.lower().startswith("default:"):
                default = body.partition(":")[2].strip()
            continue
        if line.startswith("[") or "=" not in line:
            continue
        name, _, value = line.partition("=")
        rules.append(PolicyRule(
            name=name.strip(),
            recommended=normalize_value(value),
            rationale=rationale,
            default=normalize_value(default) if default else "",
        ))
        rationale = ""
        default = ""
    return rules


def default_policy() -> list[PolicyRule]:
    with open(os.path.join(os.path.dirname(__file__), "data", "policy.ini"), encoding="utf-8") as fh:
        return load_policy(fh.read())


def audit(settings: SettingsMap, policy: list[PolicyRule]) -> list[Misconfiguration]:
    """One Misconfiguration per policy rule whose effective value (the ini
    value if present, else the rule's default) differs from the
    recommendation.  Output follows policy order and never mentions
    settings outside the policy."""
    findings: list[Misconfiguration] = []
    for rule in policy:
        present = settings.get(rule.name)
        effective = normalize_value(present) if present is not None else rule.default
        if effective != rule.recommended:
            findings.append(Misconfiguration(
                name=rule.name,
                current=effective,
                recommended=rule.recommended,
                rationale=rule.rationale,
            ))
    return findings
