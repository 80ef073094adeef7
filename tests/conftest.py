import pytest

from projgeo import jones


@pytest.fixture(autouse=True)
def fresh_path_ends():
    """Empty the path-end cache before each test, so that every test builds
    its own value-specified ends and a spy or an injected fault sees them."""
    jones._shared_end.cache_clear()
