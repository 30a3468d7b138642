import collections

import pytest

from historyvalue import learning


@pytest.fixture
def empty_memo(monkeypatch):
    """An empty memo for one test; the suite's shared memo comes back after."""
    monkeypatch.setattr(learning, "_SEARCHES", collections.OrderedDict())
    return learning._SEARCHES
