"""Documentation quality gate.

Deliverable (e) requires doc comments on every public item; this test
walks the whole package and fails on any public module, class, function
or method without a docstring, so documentation debt cannot creep in.
It also holds the environment knobs the package reads to the ones
``docs/PARAMETERS.md`` documents, in both directions.
"""

import importlib
import inspect
import os
import pkgutil
import re

import repro

_KNOB = re.compile(r"REPRO_[A-Z0-9_]*[A-Z0-9]")
_DOC_ROW = re.compile(r"^\| `(REPRO_[A-Z0-9_]+)` \|", re.MULTILINE)
_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Names that are legitimately docstring-free (dataclass auto-methods
#: and the like are filtered structurally, not listed here).
_EXEMPT_MODULES = {"repro.__main__"}


def _walk_modules():
    yield repro
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if info.name in _EXEMPT_MODULES:
            continue
        yield importlib.import_module(info.name)


def _public_members(module):
    for name, obj in vars(module).items():
        if name.startswith("_"):
            continue
        if inspect.ismodule(obj):
            continue
        defined_here = getattr(obj, "__module__", None) == module.__name__
        if not defined_here:
            continue
        if inspect.isclass(obj) or inspect.isfunction(obj):
            yield name, obj


def test_every_module_documented():
    missing = [module.__name__ for module in _walk_modules()
               if not (module.__doc__ or "").strip()]
    assert not missing, "undocumented modules: {}".format(missing)


def test_every_public_class_and_function_documented():
    missing = []
    for module in _walk_modules():
        for name, obj in _public_members(module):
            if not (obj.__doc__ or "").strip():
                missing.append("{}.{}".format(module.__name__, name))
    assert not missing, "undocumented: {}".format(missing)


def test_public_methods_documented():
    missing = []
    for module in _walk_modules():
        for cls_name, cls in _public_members(module):
            if not inspect.isclass(cls):
                continue
            for name, member in vars(cls).items():
                if name.startswith("_"):
                    continue
                func = member
                if isinstance(member, (staticmethod, classmethod)):
                    func = member.__func__
                elif isinstance(member, property):
                    func = member.fget
                if not inspect.isfunction(func):
                    continue
                if not (func.__doc__ or "").strip():
                    missing.append("{}.{}.{}".format(
                        module.__name__, cls_name, name))
    assert not missing, \
        "undocumented methods: {}".format(sorted(missing))


def _source_knobs():
    knobs = set()
    for folder, __, files in os.walk(os.path.join(_ROOT, "src", "repro")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(folder, name)) as handle:
                    knobs.update(_KNOB.findall(handle.read()))
    return knobs


def test_env_knobs_match_parameters_doc():
    """Every ``REPRO_*`` name under ``src/`` has a row in a
    ``docs/PARAMETERS.md`` table, and every row names a live knob."""
    with open(os.path.join(_ROOT, "docs", "PARAMETERS.md")) as handle:
        documented = set(_DOC_ROW.findall(handle.read()))
    assert "REPRO_JOBS" in documented             # the parse found rows
    assert _source_knobs() == documented
