import pytest

from historyvalue import learning


@pytest.fixture
def empty_memo():
    """The search memo, empty at the start of the test and emptied after it."""
    learning._search.cache_clear()
    yield learning._search
    learning._search.cache_clear()
