import importlib
import pkgutil

import pytest

import stabcert

MODULES = ["stabcert"] + [f"stabcert.{m.name}"
                          for m in pkgutil.iter_modules(stabcert.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    # perfbench's tracer reads every `__all__` entry with getattr, so a
    # stale name would crash a traced benchmark run
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ())
               if not hasattr(module, attr)]
    assert missing == []
