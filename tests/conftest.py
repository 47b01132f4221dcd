import pytest

from catsigma import build_prime_table


@pytest.fixture(scope="session")
def table_10k():
    return build_prime_table(10_000)


@pytest.fixture(scope="session")
def table_100k():
    return build_prime_table(100_000)


@pytest.fixture(scope="session")
def table_200k():
    return build_prime_table(200_000)


@pytest.fixture(scope="session")
def table_6m():
    return build_prime_table(6_000_000)
