"""The README's fenced blocks run as written.

Every language-tagged block either runs here or opens with the line
``# (not run by tests/test_readme.py)``: a block that needs the network,
would run this suite inside itself, or rewrites ``tests/golden.json``. In an empty directory, with
``simcse-forge`` mapped to ``python -m simcse_forge.cli``, the CLI
walkthrough (the first ``bash`` block under ``## CLI``), then the dotted
override command and the experiment commands run command by command, and
each must exit 0. The JSON config example loads through
``config.load_run_config``, and the library example (the ``python`` block
under ``## Library``) must print the value the README states right after it.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

from simcse_forge.config import load_run_config

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")
SKIP_MARK = "# (not run by tests/test_readme.py)"
FENCE = re.compile(r"^```(\w+)\n(.*?)^```\n", re.M | re.S)

# the blocks that run: (section, language, index among that section's blocks
# of the language)
WALKTHROUGH = ("CLI", "bash", 0)
OVERRIDE = ("CLI", "bash", 1)
CONFIG = ("CLI", "json", 0)
LIBRARY = ("Library", "python", 0)
EXPERIMENTS = ("Experiments", "bash", 0)


def _blocks() -> dict[tuple[str, str, int], str]:
    """Every language-tagged fenced block, keyed (section, language, index),
    the section being the ``## `` heading above it."""
    blocks: dict[tuple[str, str, int], str] = {}
    for match in FENCE.finditer(README):
        section = re.findall(r"^## (.+)$", README[:match.start()], re.M)[-1]
        language = match.group(1)
        index = sum(key[:2] == (section, language) for key in blocks)
        blocks[(section, language, index)] = match.group(2)
    return blocks


def _block(key) -> str:
    return _blocks()[key]


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


def _run_commands(block: str, cwd) -> None:
    cli = f'"{sys.executable}" -m simcse_forge.cli'
    for command in _commands(block):
        done = _run(re.sub(r"^simcse-forge\b", lambda _: cli, command), cwd,
                    shell=True)
        assert done.returncode == 0, f"{command}\n{done.stderr}"


def test_every_tagged_block_runs_or_is_marked():
    run = {WALKTHROUGH, OVERRIDE, CONFIG, LIBRARY, EXPERIMENTS}
    blocks = _blocks()
    assert run <= set(blocks)
    for key, body in blocks.items():
        marked = body.startswith(SKIP_MARK + "\n")
        assert marked != (key in run), (
            f"{key} is {'both run and' if marked else 'neither run nor'} marked")


def test_cli_walkthrough_runs_in_an_empty_directory(tmp_path):
    _run_commands(_block(WALKTHROUGH), tmp_path)
    assert (tmp_path / "runs" / "sst" / "checkpoint.ckpt").is_file()
    assert (tmp_path / "eval" / "heatmap.csv").is_file()
    assert (tmp_path / "emb" / "embeddings.tsv").is_file()
    # then, in the same directory, the override and experiment commands
    runs = set((tmp_path / "runs").iterdir())
    _run_commands(_block(OVERRIDE), tmp_path)
    [new] = set((tmp_path / "runs").iterdir()) - runs
    assert (new / "checkpoint.ckpt").is_file()
    _run_commands(_block(EXPERIMENTS), tmp_path)


def test_config_example_loads(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(_block(CONFIG), encoding="utf-8")
    config = load_run_config(str(path))
    assert config.seed == 11 and config.dropout.kind == "curriculum"
    assert config.encoder.pooling == "cls_tanh"


def test_library_example_prints_the_stated_value(tmp_path):
    stated = re.search(r"It prints `([^`]+)`",
                       README[README.index("\n## Library\n"):]).group(1)
    done = _run([sys.executable, "-c", _block(LIBRARY)], tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout == stated + "\n"
