import pytest

from lsapdma import harness


@pytest.fixture(autouse=True)
def _drop_kept_pool():
    """Shut down the Monte Carlo pool a test leaves behind: its processes
    are forks of the module as it was, so a later test that patches
    ``harness`` must not be served by them."""
    yield
    harness._drop_pool()
