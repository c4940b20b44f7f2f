import numpy as np
import pytest

import smallscat as ss


@pytest.fixture(scope="session")
def unit_box():
    return ss.Box(lo=[0.0, 0.0, 0.0], hi=[1.0, 1.0, 1.0])


@pytest.fixture(scope="session")
def wide_box():
    return ss.Box(lo=[-2.0, -2.0, -2.0], hi=[2.0, 2.0, 2.0])


@pytest.fixture(scope="session")
def wave_z():
    return ss.IncidentWave(k=1.0, alpha=[0.0, 0.0, 1.0])


@pytest.fixture(scope="session")
def sphere_mesh_1280():
    # subdivision 3 of the icosahedron: 20 * 4^3 = 1280 triangles
    return ss.icosphere(subdivisions=3, radius=1.0)


@pytest.fixture(scope="session")
def sphere_mesh_320():
    return ss.icosphere(subdivisions=2, radius=1.0)


def rotation_matrix(axis, angle):
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    c, s = np.cos(angle), np.sin(angle)
    cross = np.array([
        [0.0, -axis[2], axis[1]],
        [axis[2], 0.0, -axis[0]],
        [-axis[1], axis[0], 0.0],
    ])
    return c * np.eye(3) + s * cross + (1.0 - c) * np.outer(axis, axis)


def pytest_configure(config):
    # Tier-1 turns numpy's RuntimeWarning (a divide by zero, an overflow, an invalid value
    # in the kernel algebra) and scipy's warning of a singular or ill-conditioned LU into a
    # failure instead of a printed warning.  A deprecated numpy or scipy call made from
    # smallscat fails too, on the day it is deprecated rather than the day it is removed.
    config.addinivalue_line("filterwarnings", "error::RuntimeWarning")
    config.addinivalue_line("filterwarnings", "error::scipy.linalg.LinAlgWarning")
    config.addinivalue_line("filterwarnings", "error::DeprecationWarning:smallscat")
    config.addinivalue_line("filterwarnings", "error::FutureWarning:smallscat")
