from hypothesis import given
from hypothesis import strategies as st

from phpwarden.config_audit import (
    Misconfiguration,
    PolicyRule,
    audit,
    default_policy,
    load_policy,
    normalize_value,
    parse_ini,
)


def test_parse_ini_basics():
    settings = parse_ini(
        "; leading comment\n"
        "[PHP]\n"
        "display_errors = On\n"
        "max_input_time = 60\n"
    )
    assert settings.get("display_errors") == "On"
    assert settings.get("max_input_time") == "60"
    assert settings.get("missing") is None


def test_parse_ini_key_lookup_case_insensitive():
    settings = parse_ini("Display_Errors = On\n")
    assert settings.get("display_errors") == "On"
    assert settings.get("DISPLAY_ERRORS") == "On"


def test_parse_ini_later_duplicate_wins():
    settings = parse_ini("expose_php = On\nexpose_php = Off\n")
    assert settings.get("expose_php") == "Off"


def test_parse_ini_strips_trailing_comment_and_quotes():
    settings = parse_ini('session.name = "PHPSESSID" ; cookie name\n')
    assert settings.get("session.name") == "PHPSESSID"


def test_parse_ini_never_raises_on_junk():
    settings = parse_ini("just some words\n= no key\nok = hello\n")
    assert settings.get("ok") == "hello"
    assert settings.diagnostics  # junk lines are reported, not fatal


def test_normalize_value_boolean_folding():
    for raw in ("on", "Yes", "TRUE", "1"):
        assert normalize_value(raw) == "On"
    for raw in ("off", "No", "false", "0"):
        assert normalize_value(raw) == "Off"
    assert normalize_value("60") == "60"


def test_parse_ini_folds_boolean_spellings():
    settings = parse_ini("display_errors = 1\nregister_globals = yes\n")
    assert settings.get("display_errors") == "On"
    assert settings.get("register_globals") == "On"


@given(st.text(max_size=40))
def test_normalize_value_idempotent(raw):
    once = normalize_value(raw)
    assert normalize_value(once) == once


def test_audit_flags_divergence_in_policy_order():
    policy = [
        PolicyRule("a_first", "Off", "why a", "Off"),
        PolicyRule("b_second", "On", "why b", "Off"),
    ]
    settings = parse_ini("b_second = Off\na_first = on\n")
    report = audit(settings, policy)
    assert [m.name for m in report] == ["a_first", "b_second"]
    assert report[0] == Misconfiguration("a_first", "On", "Off", "why a")


def test_audit_uses_default_when_setting_absent():
    policy = [PolicyRule("display_errors", "Off", "leaks internals", "On")]
    assert [m.name for m in audit(parse_ini(""), policy)] == ["display_errors"]
    safe = [PolicyRule("allow_url_include", "Off", "rfi", "Off")]
    assert audit(parse_ini(""), safe) == []


def test_audit_result_is_subset_of_policy():
    policy = default_policy()
    names = {r.name for r in policy}
    for text in ("", "display_errors = Off\nregister_globals = on\n"):
        for m in audit(parse_ini(text), policy):
            assert m.name in names


def test_vulnerable_fixture_full_audit(repo_root):
    settings = parse_ini((repo_root / "fixtures/php_ini/vulnerable.ini").read_text())
    report = audit(settings, default_policy())
    assert [m.name for m in report] == [
        "register_globals",
        "display_errors",
        "allow_url_fopen",
        "expose_php",
        "session.use_only_cookies",
    ]
    by_name = {m.name: m for m in report}
    assert by_name["session.use_only_cookies"].current == "Off"
    assert by_name["session.use_only_cookies"].recommended == "On"
    for m in report:
        assert m.rationale


def test_hardened_fixture_audits_clean(repo_root):
    settings = parse_ini((repo_root / "fixtures/php_ini/hardened.ini").read_text())
    assert audit(settings, default_policy()) == []


def test_fixpoint_applying_recommendations_clears_audit(repo_root):
    policy = default_policy()
    settings = parse_ini((repo_root / "fixtures/php_ini/vulnerable.ini").read_text())
    report = audit(settings, policy)
    assert report
    patched = "".join(f"{m.name} = {m.recommended}\n" for m in report)
    original = (repo_root / "fixtures/php_ini/vulnerable.ini").read_text()
    assert audit(parse_ini(original + patched), policy) == []


def test_load_policy_reads_rationale_and_default():
    text = (
        "; rationale: attackers read stack traces\n"
        "; default: On\n"
        "display_errors = Off\n"
    )
    rules = load_policy(text)
    assert rules == [
        PolicyRule("display_errors", "Off", "attackers read stack traces", "On")
    ]


def test_default_policy_is_wellformed():
    rules = default_policy()
    assert {r.name for r in rules} >= {
        "register_globals",
        "display_errors",
        "allow_url_fopen",
        "allow_url_include",
        "expose_php",
        "session.use_only_cookies",
    }
    for r in rules:
        assert r.recommended in ("On", "Off")
        assert r.rationale
