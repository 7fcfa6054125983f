"""Every test starts from a cold space cache, the one cache the package
keeps: no space built by an earlier test, so counts of builds and
eliminations depend on the test alone."""

import pytest

from cwbrauer import spaces


def _clear_space_cache():
    spaces._built_spaces.clear()


@pytest.fixture(autouse=True)
def cold_caches():
    """Clears the space cache before each test.  A test that names this
    fixture gets the clearing function, to start cold again midway."""
    _clear_space_cache()
    return _clear_space_cache
