import numpy as np
import pytest

import levsqueeze.physics as physics


@pytest.fixture
def rng():
    return np.random.default_rng(20260826)


@pytest.fixture
def laser():
    return physics.Laser(power=0.5, waist=0.7e-6, wavelength=1.064e-6)


@pytest.fixture
def particle():
    return physics.Particle(radius=70e-9, density=2200.0, permittivity=2.1)


@pytest.fixture
def rotor():
    # convenience numbers sized like a ~100 nm silica ellipsoid
    return physics.Rotor(
        alpha_parallel=6.0e-33,
        alpha_perp=4.0e-33,
        moment_of_inertia=1.0e-31,
        volume=2.0e-21,
    )
