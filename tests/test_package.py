"""The package's public surface."""

import re
from pathlib import Path

import flexscat
from flexscat import cli


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


def test_readme_cli_examples_dispatch(monkeypatch):
    # every `flexscat ...` command of README's sh blocks parses and reaches its run
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```sh\n(.*?)```", readme, re.S)
    examples = [line.split()[1:] for block in blocks
                for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("flexscat ")]
    runs = {"solve": "run_solve", "sweep": "run_sweep", "converge": "run_convergence",
            "analytic": "run_analytic"}
    calls = []
    for name in runs.values():
        monkeypatch.setattr(cli, name, lambda *args, name=name: calls.append(name))
    for argv in examples:
        assert cli.main(argv) == 0, argv
    assert examples and calls == [runs[argv[0]] for argv in examples]
