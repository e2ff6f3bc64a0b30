"""Every annotation in the package resolves at run time."""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import typing

import pytest

import vitamap

MODULES = sorted(
    ["vitamap", *(f"vitamap.{m.name}" for m in pkgutil.iter_modules(vitamap.__path__))]
)


@pytest.mark.parametrize("name", MODULES)
def test_get_type_hints_resolves_every_function_and_class(name):
    # Names imported only inside a function (argparse in cli, say) must
    # not appear in annotations: typing.get_type_hints raises NameError.
    module = importlib.import_module(name)
    checked = []
    for attr, value in vars(module).items():
        if getattr(value, "__module__", None) != name:
            continue
        if inspect.isclass(value):
            typing.get_type_hints(value)
            members = [m for m in vars(value).values() if inspect.isfunction(m)]
        elif inspect.isfunction(value):
            members = [value]
        else:
            continue
        for function in members:
            typing.get_type_hints(function)
        checked.append(attr)
    assert checked or name in ("vitamap", "vitamap.__main__")
