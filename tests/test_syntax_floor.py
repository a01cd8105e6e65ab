"""Every Python file of the project parses as Python 3.10, the floor
``pyproject.toml`` declares (``requires-python``), so a construct that needs
a newer Python fails here even where only a newer interpreter runs the suite."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_every_file_parses_as_python_3_10():
    assert 'requires-python = ">=3.10"' in (ROOT / "pyproject.toml").read_text()
    files = sorted(path for folder in ("src", "tests", "perfbench")
                   for path in (ROOT / folder).rglob("*.py"))
    assert len(files) > 40
    failed = []
    for path in files:
        try:
            ast.parse(path.read_text(encoding="utf-8"), filename=str(path),
                      feature_version=(3, 10))
        except SyntaxError as exc:
            failed.append(f"{path.relative_to(ROOT)}:{exc.lineno}: {exc.msg}")
    assert not failed, "\n".join(failed)
