import random

import pytest

from dieumod.verify import tower  # noqa: F401  (cached; tests import it from here)


@pytest.fixture
def rng():
    return random.Random(20240811)


def mat_mul(A, B):
    """A * B for 2x2 matrices of RamElems on the packed kernel: `packed`,
    `mat_product` (its squaring route when `B is A`), then `ram_matrix`."""
    t = A[0][0].tower
    P = t.packed(A)
    return t.ram_matrix(t.mat_product(P, P if B is A else t.packed(B)))


def random_unit(t, rng):
    """A random unit of t's ramified ring: the constant coefficient is drawn
    again until it is a unit."""
    c = [t.random_witt(rng) for _ in range(t.e)]
    while c[0].ord_p() > 0:
        c[0] = t.random_witt(rng)
    return t.ram(c)
