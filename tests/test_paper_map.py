"""``docs/paper_map.md``: every back-ticked path exists, every package is named."""

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
