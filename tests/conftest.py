import numpy as np
import pytest

from ccdburgers.exact import compute_fourier_coefficients


@pytest.fixture(scope="session")
def coeffs01():
    """Fourier coefficients of the 1D benchmark at 1/Re = 0.1, shared
    across the whole session."""
    return compute_fourier_coefficients(0.1)


@pytest.fixture
def rng():
    return np.random.default_rng(20240901)
