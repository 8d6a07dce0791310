import pytest

from weylbound.lfunc import delta_spec


@pytest.fixture(scope="session")
def delta2000():
    return delta_spec(2000)


@pytest.fixture(scope="session")
def delta12000():
    return delta_spec(12000)


@pytest.fixture(scope="session")
def delta30000():
    return delta_spec(30000)


@pytest.fixture(scope="session")
def delta50000():
    return delta_spec(50000)
