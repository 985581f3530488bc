import math

import numpy as np
import pytest

from gaugeproj import RadiusSchedule, ScheduleError, build_from_gauge, power


def schedule_from_radii(radii) -> RadiusSchedule:
    """A hand-made schedule with the given radii, for hierarchies whose
    geometry a test fixes directly (the run derives its own)."""
    r = [float(x) for x in radii]
    if any(x <= 0 for x in r):
        raise ScheduleError("radii must be positive")
    return RadiusSchedule(tuple(math.log(x) for x in r))


def level_centers(h, level) -> np.ndarray:
    """Absolute centers of all level-`level` discs of h, lexicographic in
    index path: each level repeats the parents' centers and adds the
    children's offsets along the level's direction, tiled over the
    parents.  The oracle the measure's index-path sums are held to."""
    centers = np.zeros((1, 2))
    for j in range(1, level + 1):
        step = h.offsets(j)[:, None] * h.direction(j)[None, :]
        centers = (np.repeat(centers, len(step), axis=0)
                   + np.tile(step, (len(centers), 1)))
    return centers


@pytest.fixture(scope="session")
def h05_depth5():
    return build_from_gauge(power(0.5), 5)


@pytest.fixture(scope="session")
def h03_depth5():
    return build_from_gauge(power(0.3), 5)


@pytest.fixture(scope="session")
def h08_depth5():
    return build_from_gauge(power(0.8), 5)
