import math
import os

import pytest

import recoilspec
from recoilspec import PulseParams

TWO_PI = 2.0 * math.pi


@pytest.fixture(scope="session", autouse=True)
def _child_processes_import_this_package():
    """Tests that start the CLI in a child process need it to import the
    package this session imports, which pytest's `pythonpath` setting
    finds in src/."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH",
                  os.path.dirname(os.path.dirname(recoilspec.__file__)),
                  prepend=os.pathsep)
        yield


@pytest.fixture(scope="session")
def dipole_pulse() -> PulseParams:
    """Short-pulse dipole-transition scenario used throughout the tests."""
    return PulseParams(rabi=TWO_PI * 5.6e6,
                       linewidth=TWO_PI * 34e6,
                       detuning=TWO_PI * 17e6,
                       lamb_dicke=0.108,
                       mode_freq=TWO_PI * 1.92e6,
                       pulse_duration=50e-9)
