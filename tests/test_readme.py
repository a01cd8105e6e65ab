"""The README's CLI walkthrough and library example run as written.

The walkthrough (the first ``bash`` block under ``## CLI``) runs command by
command in an empty directory, with ``simcse-forge`` mapped to
``python -m simcse_forge.cli``; each command must exit 0. The library
example (the ``python`` block under ``## Library``) must print the value the
README states right after it.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")


def _block(section: str, language: str) -> str:
    """The first fenced ``language`` block after the ``section`` heading."""
    start = README.index(f"\n## {section}\n")
    match = re.compile(rf"^```{language}\n(.*?)^```\n", re.M | re.S).search(README, start)
    return match.group(1)


def _commands(block: str) -> list[str]:
    """Shell commands, one per line, a here-document kept with its command."""
    commands, lines = [], iter(block.splitlines())
    for line in lines:
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        heredoc = re.search(r"<<\s*'?(\w+)'?", line)
        if heredoc:
            body = []
            for body_line in lines:
                body.append(body_line)
                if body_line == heredoc.group(1):
                    break
            line = "\n".join([line, *body])
        commands.append(line)
    return commands


def _run(args, cwd, **kwargs):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    return subprocess.run(args, cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=120, **kwargs)


def test_cli_walkthrough_runs_in_an_empty_directory(tmp_path):
    commands = _commands(_block("CLI", "bash"))
    cli = f'"{sys.executable}" -m simcse_forge.cli'
    for command in commands:
        done = _run(re.sub(r"^simcse-forge\b", lambda _: cli, command), tmp_path,
                    shell=True)
        assert done.returncode == 0, f"{command}\n{done.stderr}"
    assert (tmp_path / "runs" / "sst" / "checkpoint.ckpt").is_file()
    assert (tmp_path / "eval" / "heatmap.csv").is_file()
    assert (tmp_path / "emb" / "embeddings.tsv").is_file()


def test_library_example_prints_the_stated_value(tmp_path):
    stated = re.search(r"It prints `([^`]+)`",
                       README[README.index("\n## Library\n"):]).group(1)
    done = _run([sys.executable, "-c", _block("Library", "python")], tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout == stated + "\n"
