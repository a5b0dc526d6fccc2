"""The package's public surface."""

import re
from pathlib import Path

import flexscat


def test_every_export_resolves():
    assert [name for name in flexscat.__all__ if not hasattr(flexscat, name)] == []
    assert len(set(flexscat.__all__)) == len(flexscat.__all__)


def test_readme_library_snippet_runs(capsys):
    # the Library section's example, run as a user would paste it
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library\n", 1)[1]
    code = re.match(r"\s*```python\n(.*?)```", section, re.S).group(1)
    names = {}
    exec(compile(code, "README.md (Library)", "exec"), names)
    assert "ErrorReport(" in capsys.readouterr().out
    assert names["field"].residual <= 1e-10
    assert 0 < names["errors"].e_l2_v < 0.01
