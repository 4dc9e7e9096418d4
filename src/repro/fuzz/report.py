"""Text renderings for the fuzz campaign and ``check --mutate``.

``repro-sim check --mutate NAME`` and the campaign's mutation
iterations answer the same question — *did the checker catch this
mutant, and what did the attempt exercise?* — so they share one record
schema, :func:`repro.verify.mutations.mutation_record`.
:func:`render_fuzz` and :func:`render_mutation` are the text
renderings the CLI prints; the campaign's JSON document comes from
:meth:`repro.fuzz.campaign.FuzzReport.to_json`.
"""

from __future__ import annotations


def render_mutation(record: dict) -> str:
    """Text rendering of one mutation record."""
    if record["detected"]:
        status = (
            f"detected as {record['caught_as']} "
            f"({record['trace_len']}-event counterexample)"
        )
    else:
        status = (
            f"ESCAPED detection ({record['states']} states explored)"
        )
    return (
        f"mutation {record['name']} on {record['protocol']}: {status}; "
        f"{record['rows_reached']} coverage rows reached"
    )


def render_fuzz(doc: dict) -> str:
    """Text rendering of a campaign report document."""
    lines = [
        (
            f"fuzz campaign: seed={doc['seed']} budget={doc['budget']} "
            f"protocols={','.join(doc['protocols'])} "
            f"interconnect={doc['interconnect']}"
        ),
        (
            f"  coverage: {doc['rows_covered']} table rows, "
            f"corpus of {doc['corpus_size']} entries"
        ),
    ]
    mut = doc["mutations"]
    lines.append(
        f"  mutations: {mut['detected']}/{mut['attempted']} detected; "
        f"seeded rediscovered: "
        f"{len(mut['seeded_detected'])}/{mut['seeded_total']} "
        f"({', '.join(mut['seeded_detected']) or 'none'})"
    )
    if doc["findings"]:
        lines.append(f"  FINDINGS: {len(doc['findings'])}")
        for finding in doc["findings"]:
            where = finding.get("test") or finding.get("mutation") or "-"
            lines.append(
                f"    [{finding['kind']}] {where} "
                f"({finding.get('protocol', '-')}): {finding['detail']}"
            )
    else:
        lines.append("  findings: none")
    lines.append("result: " + ("CLEAN" if doc["ok"] else "FINDINGS"))
    return "\n".join(lines)
