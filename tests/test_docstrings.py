"""Every double-backticked dotted name in the package's docstrings names something that exists.

Docstrings point at the one place that states a rule (``decoding._decode``,
``ProcessorChain.bind``); a rename that leaves such a pointer dangling fails
here. A pointer's first part is a module of the package or a global of the
module whose docstring holds it; each later part is an attribute.
"""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import topicsteer

_DOTTED = re.compile(r"``([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)``")
PACKAGE = Path(topicsteer.__file__).parent
MODULES = {info.name: importlib.import_module(f"topicsteer.{info.name}") for info in pkgutil.iter_modules([str(PACKAGE)])}


def docstring_pointers() -> list[tuple[str, str]]:
    """(module name, dotted name) for each pointer in the docstrings of ``src/topicsteer/*.py``."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [(path.stem, dotted) for dotted in _DOTTED.findall(ast.get_docstring(node) or "")]
    return found


def resolves(module_name: str, dotted: str) -> bool:
    module = topicsteer if module_name == "__init__" else MODULES[module_name]
    first, *rest = dotted.split(".")
    if first in MODULES:
        target = MODULES[first]
    elif hasattr(module, first):
        target = getattr(module, first)
    else:
        return False
    for part in rest:
        if not hasattr(target, part):
            return False
        target = getattr(target, part)
    return True


def test_every_docstring_pointer_resolves():
    pointers = docstring_pointers()
    assert ("reweight", "decoding._decode") in pointers  # the scan sees the pointers it is meant to check
    assert [pointer for pointer in pointers if not resolves(*pointer)] == []


def test_a_dangling_pointer_is_caught():
    assert not resolves("reweight", "decoding._decoder")
    assert not resolves("reweight", "ProcessorChain.unbind")
    assert not resolves("models", "nowhere.thing")
