"""The package layer order that DESIGN.md §6 declares, checked.

DESIGN.md's "Repository map" lists every package and top-level module
under ``src/repro/`` once, lowest layer first.  A module may import from
its own entry and from entries listed before it, never from a later
one; so the packages form a stack with no import cycle.  Every
``import`` / ``from`` statement counts, function-local and
``TYPE_CHECKING`` ones included.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"

_ENTRY = re.compile(r"^  ([A-Za-z_]\w*)(/|\.py)\s")


def layer_order():
    """Entry names from DESIGN.md §6, lowest layer first."""
    text = (ROOT / "DESIGN.md").read_text(encoding="utf-8")
    section = text[text.index("## 6. Repository map"):]
    block = section[section.index("```\n") + 4:]
    block = block[:block.index("```")]
    lines = block.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("src/repro/")) + 1
    order = []
    for line in lines[start:]:
        if line and not line.startswith(" "):
            break  # the next top-level directory (tests/, ...)
        match = _ENTRY.match(line)
        if match:
            order.append(match.group(1))
    return order


def _entry_of(path):
    rel = path.relative_to(SRC)
    return rel.parts[0] if len(rel.parts) > 1 else rel.stem


def _module_of(path):
    rel = path.relative_to(SRC.parent).with_suffix("")
    parts = list(rel.parts)
    if parts[-1] == "__init__":
        return parts[:-1], True
    return parts, False


def _is_entry(name):
    return (SRC / name / "__init__.py").exists() or (SRC / f"{name}.py").exists()


def _imported_entries(path):
    """(line, target entry) for every intra-package import in *path*."""
    module, is_package = _module_of(path)
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            targets = [alias.name.split(".") for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = module if is_package else module[:-1]
                base = base[: len(base) - (node.level - 1)]
            else:
                base = []
            target = base + (node.module.split(".") if node.module else [])
            if target == ["repro"]:
                # ``from repro import x``: a submodule entry, else the root
                targets = [["repro", alias.name] for alias in node.names]
            else:
                targets = [target]
        else:
            continue
        for target in targets:
            if target[0] != "repro":
                continue
            if len(target) > 1 and _is_entry(target[1]):
                yield node.lineno, target[1]
            else:
                yield node.lineno, "__init__"


def test_map_lists_every_module_once():
    order = layer_order()
    duplicates = sorted({name for name in order if order.count(name) > 1})
    assert not duplicates, f"listed more than once in DESIGN.md §6: {duplicates}"
    present = {
        path.stem if path.is_file() else path.name
        for path in SRC.iterdir()
        if (path.is_dir() and (path / "__init__.py").exists()) or path.suffix == ".py"
    }
    assert set(order) == present, (
        f"missing from DESIGN.md §6: {sorted(present - set(order))}; "
        f"listed but absent: {sorted(set(order) - present)}"
    )


def test_no_import_reaches_a_later_layer():
    order = layer_order()
    rank = {name: index for index, name in enumerate(order)}
    violations = []
    for path in sorted(SRC.rglob("*.py")):
        importer = _entry_of(path)
        for line, target in _imported_entries(path):
            # An entry missing from the map fails the test above.
            if rank.get(target, -1) > rank.get(importer, len(rank)):
                violations.append(
                    f"{path.relative_to(SRC)}:{line}: {importer} imports {target}, "
                    "a later layer"
                )
    assert not violations, "\n".join(violations)
