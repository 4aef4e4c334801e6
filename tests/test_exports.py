"""Every name a labelloop module lists in ``__all__`` exists."""

import importlib
import pkgutil

import labelloop


def test_every_all_name_resolves():
    names = [m.name for m in pkgutil.iter_modules(labelloop.__path__, "labelloop.")]
    assert "labelloop.harness" in names  # the walk found the package's modules
    missing = []
    for name in names:
        module = importlib.import_module(name)
        missing += [f"{name}.{attr}" for attr in getattr(module, "__all__", ())
                    if not hasattr(module, attr)]
    assert missing == []
