import pytest

from curvelab import s5windows


@pytest.fixture(scope="session")
def w2():
    return s5windows.build_window(2)


@pytest.fixture(scope="session")
def w3():
    return s5windows.build_window(3)


@pytest.fixture(scope="session")
def w4():
    return s5windows.build_window(4)
