"""The docs cite only commands that parse and files that exist.

README.md, EXPERIMENTS.md and DESIGN.md tell a reader how to regenerate
each paper artifact.  Every ``python -m repro ...`` command they quote
must parse with the real CLI parser (nothing is run), every
``python -m repro.<module>`` must name a module that can run as a
script, and every ``tests/``, ``examples/``, ``src/`` or ``benchmarks/``
path — and each ``::name`` after one — must exist.
"""

import re
import shlex
from pathlib import Path

from repro.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]
DOCS = ("README.md", "EXPERIMENTS.md", "DESIGN.md")

#: ``python -m repro`` followed by its arguments, up to the end of the
#: line or of the inline code span.
_COMMAND = re.compile(r"python -m repro(?=[\s`]|$)([^`\n]*)")
_MODULE = re.compile(r"python -m (repro(?:\.\w+)+)")
_PATH = re.compile(
    r"(?<![\w/.-])((?:tests|examples|src|benchmarks)/[\w./-]*)((?:::\w+)*)"
)
#: Shell assignments (``PORT=7831``) whose values stand in for ``$PORT``.
_ASSIGNMENT = re.compile(r"\b([A-Z][A-Z0-9_]*)=([^\s;]+)")
_VARIABLE = re.compile(r"\$\{?([A-Za-z_]\w*)\}?")


def _doc(name):
    return (ROOT / name).read_text(encoding="utf-8")


def _argv(arguments, variables):
    """The argument vector a shell would pass, up to the first operator
    (``&``, ``|``, ``;``, redirection) or comment."""
    arguments = _VARIABLE.sub(
        lambda m: variables.get(m.group(1), m.group(1)), arguments
    )
    lexer = shlex.shlex(arguments, posix=True, punctuation_chars=True)
    lexer.whitespace_split = True
    argv = []
    for token in lexer:
        if set(token) <= set("&|;<>()"):
            break
        argv.append(token)
    return argv


def _commands():
    """``(doc, argv)`` for every ``python -m repro ...`` the docs quote."""
    for name in DOCS:
        text = _doc(name).replace("\\\n", " ")
        variables = dict(_ASSIGNMENT.findall(text))
        for match in _COMMAND.finditer(text):
            yield name, _argv(match.group(1), variables)


def test_cited_commands_parse():
    broken = []
    for name, argv in _commands():
        try:
            build_parser().parse_args(argv)
        except SystemExit:
            broken.append(f"{name}: python -m repro {shlex.join(argv)}")
    assert not broken, "commands that do not parse:\n" + "\n".join(broken)


def test_every_doc_cites_a_command():
    """Guards the extraction itself: finding nothing would pass the above."""
    assert {name for name, _argv in _commands()} == set(DOCS)


def test_cited_paths_exist():
    missing = []
    for name in DOCS:
        for match in _PATH.finditer(_doc(name)):
            path = match.group(1).rstrip(".")
            target = ROOT / path
            if not target.exists():
                missing.append(f"{name}: {path}")
                continue
            for symbol in match.group(2).split("::")[1:]:
                source = target.read_text(encoding="utf-8")
                if not re.search(rf"^\s*(?:def|class) {symbol}\b", source, re.M):
                    missing.append(f"{name}: {path}::{symbol}")
    assert not missing, "cited paths that do not exist:\n" + "\n".join(missing)


def test_cited_modules_run_as_scripts():
    for name in DOCS:
        for module in _MODULE.findall(_doc(name)):
            source = ROOT / "src" / (module.replace(".", "/") + ".py")
            assert source.exists() and '__name__ == "__main__"' in source.read_text(
                encoding="utf-8"
            ), f"{name} cites `python -m {module}`, which has no script entry point"
