import pytest


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(owner, name) replaces owner.name by a wrapper that records
    each call's arguments, and returns the list of recorded calls."""

    def count(owner, name):
        calls = []
        real = getattr(owner, name)

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
        return calls

    return count
