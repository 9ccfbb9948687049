"""The documentation runs as written: the demo scripts, and the README examples as printed."""

import argparse
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from puregaps.cli import build_parser, main

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()


@pytest.mark.parametrize("script", sorted((ROOT / "demos").glob("*.py")), ids=lambda p: p.name)
def test_demo_runs(script):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(script)],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


def fenced_block(marker: str, lang: str) -> str:
    """The body of the first ```lang block after marker in the README."""
    start = README.index(f"```{lang}\n", README.index(marker)) + len(lang) + 4
    return README[start:README.index("```", start)]


def test_readme_cli_examples(capsys):
    # each "$ puregaps ..." line, then the lines it prints
    examples = []
    for line in fenced_block("Examples:", "sh").splitlines():
        if line.startswith("$ puregaps "):
            examples.append((shlex.split(line)[2:], []))
        else:
            examples[-1][1].append(line)
    assert len(examples) == 3
    for argv, printed in examples:
        assert main(argv) == 0, argv
        assert capsys.readouterr().out.splitlines() == printed, argv


def test_readme_quick_start(capsys):
    # each print(...) line states its output in a trailing comment
    code = fenced_block("## Library quick start", "python")
    lines = code.splitlines()
    printed = [line.split("#")[1].strip() for line in lines if line.startswith("print(")]
    assert len(printed) == 4
    exec(code, {})
    assert capsys.readouterr().out.splitlines() == printed


def leaf_parsers(parser, verb=""):
    """(verb, parser) for every verb of the CLI, "codes table" included."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield verb.strip(), parser
    for action in subs:
        for name, sub in action.choices.items():
            yield from leaf_parsers(sub, f"{verb} {name}")


def test_readme_synopsis_lists_every_flag():
    # each option of each verb is on its synopsis entry or on the shared-flags line after it
    entries = {}
    for line in fenced_block("## Command line", "").splitlines():
        if line.startswith("puregaps "):
            verb = line.split(" --")[0].split(None, 1)[1].strip()
            entries[verb] = line
        else:
            entries[verb] += line
    shared = next((line for line in README.splitlines() if line.startswith("Every verb but")), "")
    verbs = dict(leaf_parsers(build_parser()))
    assert set(entries) == set(verbs)
    missing = [
        (verb, opt)
        for verb, parser in verbs.items()
        for action in parser._actions
        for opt in action.option_strings
        if opt not in ("-h", "--help")
        and not any(re.search(rf"(?<![\w-]){opt}(?![\w-])", text) for text in (entries[verb], shared))
    ]
    assert not missing
