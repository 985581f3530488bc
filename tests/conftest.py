import math

import pytest

from gaugeproj import RadiusSchedule, ScheduleError, build_from_gauge, power


def schedule_from_radii(radii) -> RadiusSchedule:
    """A hand-made schedule with the given radii, for hierarchies whose
    geometry a test fixes directly (the run derives its own)."""
    r = [float(x) for x in radii]
    if any(x <= 0 for x in r):
        raise ScheduleError("radii must be positive")
    return RadiusSchedule(tuple(math.log(x) for x in r))


@pytest.fixture(scope="session")
def h05_depth5():
    return build_from_gauge(power(0.5), 5)


@pytest.fixture(scope="session")
def h03_depth5():
    return build_from_gauge(power(0.3), 5)


@pytest.fixture(scope="session")
def h08_depth5():
    return build_from_gauge(power(0.8), 5)
