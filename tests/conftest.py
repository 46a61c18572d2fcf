"""Session-wide test settings."""

import pytest

from pss import trainer


@pytest.fixture(scope="session", autouse=True)
def blas_on_one_thread():
    """Run the whole session with numpy's OpenBLAS on one thread, as every
    ``pss`` command does, so an in-process test rounds as a subprocess does."""
    with trainer.one_blas_thread():
        yield
