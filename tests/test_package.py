"""The package namespace."""

import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import spdprivacy

# A Sphinx cross-reference in a docstring or comment, e.g. :func:`load_pnm`.
ROLE_REF = re.compile(r":(func|class|data|meth):`([\w.]+)`")


def test_every_exported_name_resolves():
    missing = [name for name in spdprivacy.__all__ if not hasattr(spdprivacy, name)]
    assert missing == []
    assert len(set(spdprivacy.__all__)) == len(spdprivacy.__all__)


def resolves(module, role, name):
    """Whether ``name`` under ``role`` names an object: a ``:meth:`` an
    attribute of a class of ``module`` (of the class it names, if dotted),
    any other bare name an attribute of ``module``, a dotted one absolutely."""
    if role == "meth":
        owner, _, attr = name.rpartition(".")
        classes = [getattr(module, owner, None)] if owner else [
            obj for obj in vars(module).values()
            if inspect.isclass(obj) and obj.__module__ == module.__name__
        ]
        return any(inspect.isclass(c) and hasattr(c, attr) for c in classes)
    if "." not in name:
        return hasattr(module, name)
    try:
        pkgutil.resolve_name(name)
    except (ImportError, AttributeError, ValueError):
        return False
    return True


def test_docstring_cross_references_resolve():
    # a docstring that still names a deleted or renamed object fails here
    unresolved = []
    for path in sorted(Path(spdprivacy.__file__).parent.glob("*.py")):
        dotted = "spdprivacy" if path.stem == "__init__" else f"spdprivacy.{path.stem}"
        module = importlib.import_module(dotted)
        for role, name in ROLE_REF.findall(path.read_text(encoding="utf-8")):
            if not resolves(module, role, name):
                unresolved.append(f"{path.name}: :{role}:`{name}`")
    assert unresolved == []
