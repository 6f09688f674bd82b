import sys

import pytest

from ptcache import exchange

# A child interpreter with this one's -O, -X dev and -W flags, so that a
# subprocess test runs under the same checks as the suite.
PYTHON = [
    sys.executable,
    *["-O"] * sys.flags.optimize,
    *(["-X", "dev"] if sys.flags.dev_mode else []),
    *(f"-W{w}" for w in sys.warnoptions),
]


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
