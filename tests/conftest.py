"""Every test starts from cold caches: no space built and no cochain
presentation kept by an earlier test, so counts of builds and
eliminations depend on the test alone."""

import pytest

from cwbrauer import chaincx, spaces


def _clear_caches():
    spaces._built_spaces.clear()
    chaincx._presented.cache_clear()


@pytest.fixture(autouse=True)
def cold_caches():
    """Clears both caches before each test.  A test that names this
    fixture gets the clearing function, to start cold again midway."""
    _clear_caches()
    return _clear_caches
