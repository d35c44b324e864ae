import pytest

from hamjepa import trainer


@pytest.fixture(autouse=True, scope="session")
def process_setup():
    """Run the tests under the process set-up that every CLI command uses."""
    trainer.setup_process()
