import sys

import pytest

from ptcache import exchange


@pytest.fixture
def exchange_calls(monkeypatch):
    """Record the arguments of each call to the named ``exchange`` functions.

    ``exchange_calls("split_files", ...)`` patches every ptcache module that
    bound a named function, and returns ``{name: [args, ...]}``, filled as
    the functions are called.
    """

    def install(*names):
        calls = {name: [] for name in names}
        for name in names:
            original = getattr(exchange, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name].append(args)
                return _original(*args, **kwargs)

            for module in list(sys.modules.values()):
                if getattr(module, "__name__", "").startswith("ptcache") \
                        and getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counted)
        return calls

    return install
