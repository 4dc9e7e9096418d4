"""The static table audit `repro-sim check` runs before exploring.

Clean on the real tables; every seeded table fault makes ``check``
exit 1 and names the row, without a traceback.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.common.errors import ProtocolError
from repro.coherence.states import LineState
from repro.verify.model import ProtocolSpec
from repro.verify.mutations import mutate
from repro.verify.table import audit_table, expected_illegal_rows, expected_rows


@pytest.fixture
def faulty(monkeypatch):
    """Make ``check`` build one named protocol with a table fault.

    ``fault`` patches the logic in place (returning None) or, like
    :func:`~repro.verify.mutations.mutate`, returns a patched copy.
    """
    pristine = ProtocolSpec.make_logic

    def install(name, fault):
        def make_logic(spec):
            logic = pristine(spec)
            if spec.name == name:
                logic = fault(logic) or logic
            return logic

        monkeypatch.setattr(ProtocolSpec, "make_logic", make_logic)

    return install


def check_runs(capsys, *args) -> tuple[int, list[dict]]:
    """Exit code and JSON runs of a model check without litmus/replay."""
    code = main(["check", *args, "--no-litmus", "--no-replay",
                 "--format", "json"])
    return code, json.loads(capsys.readouterr().out)["runs"]


def audited_rows(run: dict, kind: str) -> set[str]:
    return {":".join(finding["row"]) for finding in run["coverage"]["audit"]
            if finding["kind"] == kind}


def test_real_tables_audit_clean():
    """All five protocols, both interconnects: MOESTI included."""
    for name in ProtocolSpec.NAMES:
        for directory in (False, True):
            logic = ProtocolSpec(name).make_logic()
            assert audit_table(logic, directory) == [], (name, directory)


def test_real_asymmetries_all_allowlisted():
    """E-MESTI differs from MOESTI in its 11 Validate_Shared rows only."""
    for directory in (False, True):
        emesti = ProtocolSpec("emesti").make_logic()
        ours = expected_rows(emesti, directory)
        base = expected_rows(ProtocolSpec("moesti").make_logic(), directory)
        differ = {
            key for key in set(ours) | set(base)
            if (ours.get(key) or {}).get("post") != (base.get(key) or {}).get("post")
        }
        assert len(differ) == 11
        assert all(key[1] == "VS" or ours[key]["post"] == "VS" for key in differ)


def test_expected_illegal_derivation():
    """The expected-illegal set tracks protocol capabilities."""
    mesi = expected_illegal_rows(ProtocolSpec("mesi").make_logic())
    moesi = expected_illegal_rows(ProtocolSpec("moesi").make_logic())
    assert ("M", "Upgrade") in mesi and ("E", "Validate") in mesi
    assert ("O", "Validate") in moesi and ("O", "Validate") not in mesi


def test_every_check_run_carries_an_empty_audit(capsys):
    code, runs = check_runs(capsys, "--protocol", "moesti")
    assert code == 0
    assert [run["coverage"]["audit"] for run in runs] == [[], []]


def test_crashing_probe_is_reported_without_traceback(faulty, capsys):
    def hole(logic):
        def apply_read(line, state, result):
            raise KeyError("table hole")

        logic._apply_read = apply_read

    faulty("mesi", hole)
    assert main(["check", "--protocol", "mesi", "--interconnect", "bus"]) == 1
    out = capsys.readouterr().out
    assert "AUDIT crash row remote.M.Read: KeyError: 'table hole'" in out
    assert "not explored: a table probe crashed" in out
    assert "litmus" not in out  # the litmus suite would crash on it too
    assert out.rstrip().endswith("result: FAIL")

    code, (run,) = check_runs(capsys, "--protocol", "mesi",
                              "--interconnect", "directory")
    assert code == 1
    assert run["complete"] is False and run["states"] == 0
    assert audited_rows(run, "crash") == {
        f"remote:{pre}:{label}" for pre in "ISEM" for label in ("Read", "Read+flush")
    }


def test_overzealous_guard_fails_check(faulty, capsys):
    def strict(logic):
        real = logic._apply_validate

        def apply_validate(line, state):
            if state is LineState.T:
                raise ProtocolError("overzealous guard")
            real(line, state)

        logic._apply_validate = apply_validate

    faulty("mesti", strict)
    code, runs = check_runs(capsys, "--protocol", "mesti")
    assert code == 1
    for run in runs:
        assert audited_rows(run, "illegal") == {"remote:T:Validate"}


def test_dropped_validate_guards_fail_check(faulty, capsys):
    def lax(logic):
        logic._apply_validate = lambda line, state: None

    faulty("moesi", lax)
    code, runs = check_runs(capsys, "--protocol", "moesi")
    assert code == 1
    for run in runs:
        assert audited_rows(run, "unguarded") == {
            "remote:M:Validate", "remote:E:Validate", "remote:O:Validate",
        }


def test_validate_installs_m_is_an_audit_asymmetry(capsys):
    code, runs = check_runs(capsys, "--protocol", "emesti",
                            "--mutate", "validate-installs-m")
    assert code == 1
    for run in runs:
        assert audited_rows(run, "asymmetry") == {"remote:T:Validate"}
        assert run["mutation"]["detected"] is True


@pytest.mark.parametrize("descriptor", [
    ("remote-row", "O", "Read", "S"),
    ("remote-row", "O", "ReadX", "M"),
    ("remote-row", "M", "Read+flush", "S"),
])
def test_emesti_is_diffed_against_moesti(faulty, capsys, descriptor):
    """Rows E-MESTI shares with MOESTI but not with MESTI are judged.

    The two O rows are dead, so exploration never fires them: only the
    audit sees these mutants.
    """
    faulty("emesti", lambda logic: mutate(logic, descriptor))
    code, runs = check_runs(capsys, "--protocol", "emesti")
    assert code == 1
    _, pre, label, post = descriptor
    base_post = ProtocolSpec("moesti").make_logic().probe_remote(
        LineState(pre), label
    )
    for run in runs:
        (finding,) = run["coverage"]["audit"]
        assert finding["row"] == ["remote", pre, label]
        assert finding["detail"] == (
            f"E-MOESTI gives {post} where the MOESTI it is built on "
            f"gives {base_post}"
        )
