import pytest

from hamjepa import certify


@pytest.fixture(autouse=True, scope="session")
def process_setup():
    """Run the tests under the process set-up that every CLI command uses."""
    certify.setup_process()
