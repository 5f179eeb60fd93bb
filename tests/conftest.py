import pytest


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(owner, name) replaces owner.name by a wrapper that records
    each call's arguments, and returns the list of recorded calls. With a
    limit, the call after the limit-th fails the test: a loop that would
    never end fails instead of hanging the suite."""

    def count(owner, name, limit=None):
        calls = []
        real = getattr(owner, name)

        def counted(*args, **kwargs):
            calls.append(args)
            if limit is not None and len(calls) > limit:
                pytest.fail(f"{name} called more than {limit} times")
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
        return calls

    return count
