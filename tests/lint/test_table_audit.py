"""Static protocol-table audit: clean on the real tables, loud on bugs."""

from __future__ import annotations

import pytest

import repro.lint.table_audit as ta
from repro.common.errors import ProtocolError
from repro.coherence.states import LineState
from repro.lint import run_lint
from repro.verify.mutations import mutate


@pytest.fixture(autouse=True)
def fresh_audit_cache():
    """Isolate the shared audit cache around every test."""
    ta._AuditRule.reset_cache()
    yield
    ta._AuditRule.reset_cache()


@pytest.fixture
def patched_logic(monkeypatch):
    """Patch the audit's logic factory for one named protocol."""
    orig = ta._make_logic

    def install(protocol: str, mutate):
        def factory(name):
            logic = orig(name)
            if name == protocol:
                # Mutators may patch in place (return None) or, like
                # verify.mutations.mutate, return a patched fresh copy.
                logic = mutate(logic) or logic
            return logic

        monkeypatch.setattr(ta, "_make_logic", factory)

    return install


def test_real_tables_audit_clean():
    """All four protocols, both interconnects: zero unexplained rows."""
    audits = ta.audit_all()
    assert len(audits) == 8
    for audit in audits:
        label = f"{audit['protocol']}/{audit['interconnect']}"
        assert audit["crashed"] == [], label
        assert audit["illegal_unexpected"] == [], label
        assert audit["illegal_missing"] == [], label
        assert audit["unaccounted"] == [], label
        # Every dead row is explained by the coverage classifier.
        assert all(d["why"] for d in audit["dead_rows"]), label


def test_real_asymmetries_all_allowlisted():
    for directory in (False, True):
        diff = ta.diff_mesti_emesti(directory=directory)
        assert diff["violations"] == []
        assert diff["allowed"], "expected real, justified asymmetries"
        assert all(item["why"] for item in diff["allowed"])


def test_sl101_catches_crashing_row(patched_logic):
    def mutate(logic):
        def hole(line, state, result):
            raise KeyError("table hole")

        logic._apply_read = hole

    patched_logic("mesi", mutate)
    findings = list(ta.MissingRowRule().check_tree())
    assert findings
    assert all(f.rule == "SL101" for f in findings)
    assert any("KeyError" in f.message for f in findings)
    assert all(f.path.startswith("protocol:MESI/") for f in findings)


def test_sl102_catches_new_illegal_row(patched_logic):
    def mutate(logic):
        orig = logic._apply_validate

        def strict(line, state, _orig=orig):
            if state is LineState.T:
                raise ProtocolError("overzealous guard")
            _orig(line, state)

        logic._apply_validate = strict

    patched_logic("mesti", mutate)
    findings = list(ta.IllegalRowDriftRule().check_tree())
    assert any(
        "remote/T/Validate" in f.message and "not on the expected-illegal" in f.message
        for f in findings
    )


def test_sl102_catches_dropped_guard(patched_logic):
    def mutate(logic):
        logic._apply_validate = lambda line, state: None

    patched_logic("moesi", mutate)
    findings = list(ta.IllegalRowDriftRule().check_tree())
    dropped = [f for f in findings if "must raise ProtocolError" in f.message]
    assert {f.snippet for f in dropped} >= {
        "remote/M/Validate:missing-guard",
        "remote/E/Validate:missing-guard",
        "remote/O/Validate:missing-guard",
    }


def test_sl103_catches_unaccounted_row(monkeypatch):
    """A legal row the enumeration loses becomes an unexplained row."""
    import repro.verify.table as table

    orig = table.expected_rows

    def lossy(logic, directory=False):
        rows = orig(logic, directory=directory)
        if logic.name == "MESTI":
            rows.pop(("remote", "S", "Read"), None)
        return rows

    monkeypatch.setattr(table, "expected_rows", lossy)
    findings = list(ta.RowAccountingRule().check_tree())
    assert any(
        f.rule == "SL103" and f.snippet == "remote/S/Read" for f in findings
    )


def test_sl104_catches_unallowlisted_asymmetry(patched_logic):
    patched_logic("emesti", lambda logic: mutate(logic, "validate-installs-m"))
    findings = list(ta.AsymmetryRule().check_tree())
    assert findings
    assert all(f.rule == "SL104" for f in findings)
    assert any("remote/T/Validate" in f.message for f in findings)


def test_full_lint_includes_audit_rules():
    result = run_lint(rules=["SL101", "SL102", "SL103", "SL104"])
    assert result.clean
    assert result.rules == ["SL101", "SL102", "SL103", "SL104"]


def test_expected_illegal_derivation():
    """The expected-illegal set tracks protocol capabilities."""
    mesi = ta.expected_illegal_rows(ta._make_logic("mesi"))
    moesi = ta.expected_illegal_rows(ta._make_logic("moesi"))
    assert ("M", "Upgrade") in mesi and ("E", "Validate") in mesi
    assert ("O", "Validate") in moesi and ("O", "Validate") not in mesi
