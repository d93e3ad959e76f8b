"""Docs name only code that exists: every backticked dotted name whose head
is ``negprob`` or one of its modules, in README.md and in the docstrings
under src/negprob, resolves with ``importlib`` and ``getattr``.

A name is the dotted prefix of a backticked span, so ``measures.
constant_measures(v, n)`` names ``measures.constant_measures``. README's
fenced code blocks hold commands and output, not names, and are skipped.
"""

import ast
import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "negprob"
MODULES = {path.stem for path in PACKAGE.glob("*.py") if path.stem != "__init__"}

# A backticked span, double (reStructuredText, in docstrings) or single
# (Markdown), and the dotted name it starts with.
SPAN = re.compile(r"``(.+?)``|`([^`\n]+)`", re.S)
DOTTED = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+")


def readme_text() -> str:
    """README.md without its fenced code blocks."""
    return re.sub(r"^```.*?^```", "", (ROOT / "README.md").read_text(), flags=re.M | re.S)


def docstrings(path: Path):
    """The docstrings of the module at path and of its classes and functions."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            text = ast.get_docstring(node, clean=False)
            if text:
                yield text


def doc_names() -> list[tuple[str, str]]:
    """(where, name) for each backticked dotted name whose head is
    ``negprob`` or one of its modules."""
    texts = [("README.md", readme_text())]
    texts += [(path.name, text) for path in sorted(PACKAGE.glob("*.py"))
              for text in docstrings(path)]
    names = []
    for where, text in texts:
        for span in SPAN.finditer(text):
            match = DOTTED.match(span.group(1) or span.group(2))
            if match and match.group().split(".")[0] in MODULES | {"negprob"}:
                names.append((where, match.group()))
    return names


def resolve(name: str):
    """The object a dotted name names, its head being ``negprob`` or one of
    its modules: the longest prefix that imports as a module under
    negprob, then ``getattr`` for each part after it."""
    parts = name.split(".")
    if parts[0] != "negprob":
        parts.insert(0, "negprob")
    for split in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:split]))
        except ModuleNotFoundError:
            continue
        for part in parts[split:]:
            obj = getattr(obj, part)
        return obj
    raise ModuleNotFoundError(name)


NAMES = doc_names()


def test_the_docs_name_code():
    # Enough names that a broken extraction shows: 40 when this was written.
    assert len(NAMES) >= 30
    assert {"README.md", "claims.py", "_batch.py"} <= {where for where, _ in NAMES}


@pytest.mark.parametrize("where, name", sorted(set(NAMES)))
def test_each_named_object_exists(where, name):
    resolve(name)


@pytest.mark.parametrize("name", ["_batch.ProbeBlock", "_batch.probe_block",
                                  "_batch.ProbeRange", "negprob._batch.run_parts",
                                  "claims._batch_probes", "claims._probes",
                                  "claims._uniform_measures", "no_such_module.name"])
def test_a_name_of_deleted_code_does_not_resolve(name):
    with pytest.raises((AttributeError, ModuleNotFoundError)):
        resolve(name)
