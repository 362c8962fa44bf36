"""``docs/paper_map.md``: every back-ticked path exists, every package is named."""

import ast
import re
from itertools import product
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGES = ROOT / "src" / "repro"
TEXT = (ROOT / "docs" / "paper_map.md").read_text()
PATHS = [head for head in (token.split("::")[0]
                           for token in re.findall(r"`([^`]+)`", TEXT))
         if "/" in head and " " not in head
         and head.endswith((".py", ".md", "/"))]


def test_every_named_path_exists():
    missing = []
    for path in PATHS:   # `test_fig1{2,3}_*_init.py`: braces, then a glob
        parts = re.split(r"\{([^}]*)\}", path)
        for choice in product(*(part.split(",") if i % 2 else [part]
                                for i, part in enumerate(parts))):
            name = "".join(choice)
            if not any(list(base.glob(name)) for base in (ROOT, PACKAGES)):
                missing.append(name)
    assert PATHS and not missing, missing


def test_every_package_is_named():
    assert not {d.name for d in PACKAGES.iterdir()
                if (d / "__init__.py").exists() and f"`{d.name}/" not in TEXT}


def _imports(tree: ast.AST) -> dict[str, str]:
    """``{local name: dotted target}`` of every import in a parsed file."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.update((a.asname or a.name, a.name) for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            out.update((a.asname or a.name, f"{node.module}.{a.name}")
                       for a in node.names)
    return out


def _dotted(path: Path) -> str:
    parts = path.relative_to(PACKAGES.parent).with_suffix("").parts
    return ".".join(part for part in parts if part != "__init__")


def test_every_module_is_reached():
    """A module is reached when code under ``src/``, ``examples/`` or
    ``benchmarks/`` imports it — directly, by a name a package
    ``__init__`` re-exports from it, or as an attribute of an imported
    package (``obs.write_trace``).  The re-export alone reaches nothing:
    an ``__init__`` counts only for the imported names its own code reads
    (``APPS``, ``ALGORITHMS``).  ``__main__`` is the entry point."""
    exports, targets = {}, set()
    for base in (PACKAGES, ROOT / "examples", ROOT / "benchmarks"):
        for path in base.rglob("*.py"):
            tree = ast.parse(path.read_text())
            imports = _imports(tree)
            if path.name == "__init__.py" and base == PACKAGES:
                exports.update((f"{_dotted(path)}.{local}", target)
                               for local, target in imports.items())
                read = {node.id for node in ast.walk(tree)
                        if isinstance(node, ast.Name)}
                imports = {k: v for k, v in imports.items() if k in read}
            targets.update(imports.values())
            targets.update(
                f"{imports[node.value.id]}.{node.attr}"
                for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in imports)
    reached = set()
    for target in targets:
        while target in exports:
            target = exports[target]
        reached.update((target, target.rpartition(".")[0]))
    modules = {_dotted(path) for path in PACKAGES.rglob("*.py")
               if path.name not in ("__init__.py", "__main__.py")}
    assert not modules - reached, sorted(modules - reached)
