import ast
import sys
from pathlib import Path

import paretotsp


def test_every_exported_name_resolves():
    missing = [name for name in paretotsp.__all__ if not hasattr(paretotsp, name)]
    assert missing == []


def test_runtime_imports_only_numpy_and_the_stdlib():
    """The package depends on numpy alone: every absolute import in src/
    names numpy or a standard-library module."""
    src = Path(paretotsp.__file__).parent
    allowed = sys.stdlib_module_names | {"numpy"}
    foreign = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [f"{path.name}: {name}" for name in names if name.split(".")[0] not in allowed]
    assert foreign == []
