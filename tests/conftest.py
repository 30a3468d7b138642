import pytest

from historyvalue import learning


@pytest.fixture
def empty_memo():
    """The search memo, empty at the start of the test and emptied after it."""
    learning._search.cache_clear()
    yield learning._search
    learning._search.cache_clear()


@pytest.fixture
def state_tables(monkeypatch):
    """The state table of each engine call made in the test, recorded as the
    call's recursion receives it."""
    tables = []
    best = learning._best

    def recording(a, b, r, game, states):
        if not any(table is states for table in tables):
            tables.append(states)
        return best(a, b, r, game, states)

    monkeypatch.setattr(learning, "_best", recording)
    return tables
