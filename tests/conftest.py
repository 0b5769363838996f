import random

import pytest

from dieumod.verify import tower  # noqa: F401  (cached; tests import it from here)


@pytest.fixture
def rng():
    return random.Random(20240811)
