"""Documentation accuracy: code snippets and referenced names exist."""

import pathlib
import re

import pytest

DOCS = pathlib.Path(__file__).resolve().parents[2] / "docs"
ROOT = DOCS.parent


def test_doc_files_exist():
    for name in ("protocols.md", "core_model.md", "workloads.md", "api.md"):
        assert (DOCS / name).is_file(), name


def test_readme_referenced_commands_exist():
    readme = (ROOT / "README.md").read_text()
    for module in re.findall(r"python -m (repro\.experiments\.\w+)", readme):
        import importlib

        mod = importlib.import_module(module)
        assert hasattr(mod, "run"), module
    for example in re.findall(r"python (examples/\w+\.py)", readme):
        assert (ROOT / example).is_file(), example


def test_api_md_snippets_import():
    """Every `from x import y` line in docs/api.md must resolve."""
    import importlib

    text = (DOCS / "api.md").read_text()
    for match in re.finditer(r"^from (repro[\w.]*) import (.+)$", text, re.M):
        module = importlib.import_module(match.group(1))
        for name in match.group(2).split(","):
            name = name.strip().rstrip("(")
            if name:
                assert hasattr(module, name), f"{match.group(1)}.{name}"


def test_design_md_module_map_is_real():
    import importlib

    design = (ROOT / "DESIGN.md").read_text()
    block = design.split("src/repro/", 1)[1].split("```", 1)[0]
    for line in block.splitlines():
        m = re.match(r"\s*(\w+)/\{([\w,]+)\}\.py", line)
        if not m:
            continue
        package, modules = m.group(1), m.group(2).split(",")
        for module in modules:
            importlib.import_module(f"repro.{package}.{module}")


def test_design_md_dotted_names_resolve():
    """Every backticked ``repro.``-dotted name in DESIGN.md is real:
    the longest importable prefix imports, and the rest are attributes."""
    import importlib

    design = (ROOT / "DESIGN.md").read_text()
    names = set(re.findall(r"`(repro(?:\.\w+)+)`", design))
    assert names
    for name in sorted(names):
        parts = name.split(".")
        for cut in range(len(parts), 0, -1):
            try:
                obj = importlib.import_module(".".join(parts[:cut]))
            except ModuleNotFoundError:
                continue
            break
        for attr in parts[cut:]:
            assert hasattr(obj, attr), name
            obj = getattr(obj, attr)


def test_experiments_md_references_real_commands():
    import importlib

    text = (ROOT / "EXPERIMENTS.md").read_text()
    for module in set(re.findall(r"python -m (repro\.experiments\.\w+)", text)):
        assert hasattr(importlib.import_module(module), "run"), module


def test_service_md_event_table_matches_the_registry():
    """docs/service.md's event table lists exactly the declared events
    and their required fields, in declaration order."""
    from repro.service.events import EVENT_SPECS

    text = (DOCS / "service.md").read_text()
    table = text.split("| event | required fields |", 1)[1].split("\n\n", 1)[0]
    rows = []
    for line in table.splitlines()[2:]:
        name, fields = line.split("|")[1:3]
        rows.append((
            name.strip().strip("`"),
            tuple(re.findall(r"`([^`]+)`", fields)),
        ))
    assert rows == [(spec.name, spec.fields) for spec in EVENT_SPECS.values()]
