import itertools
import pathlib

import numpy as np
import pytest

from dcloc import AxisBox, Ball, Halfspace, ProblemInstance, Singleton, WeightedSet

FIXTURES = pathlib.Path(__file__).parent / "fixtures"


@pytest.fixture
def fixtures_dir() -> pathlib.Path:
    return FIXTURES


def random_set(rng: np.random.Generator, n: int, bounded_only: bool = False, kind=None):
    """A random convex set of the given family, or of a random one."""
    if kind is None:
        kinds = ["point", "ball", "box"] if bounded_only else ["point", "ball", "box", "halfspace"]
        kind = kinds[rng.integers(len(kinds))]
    if kind == "point":
        return Singleton(rng.normal(size=n))
    if kind == "ball":
        return Ball(rng.normal(size=n), float(rng.uniform(0.2, 2.0)))
    if kind == "box":
        a = rng.normal(size=n)
        b = rng.normal(size=n)
        return AxisBox(np.minimum(a, b), np.maximum(a, b))
    normal = rng.normal(size=n)
    while np.linalg.norm(normal) < 1e-3:
        normal = rng.normal(size=n)
    return Halfspace(normal, float(rng.normal()))


def box_vertices(box: AxisBox) -> list[np.ndarray]:
    """Corner points of a bounded axis box, degenerate faces collapsed, in
    lexicographic order with the lower bound first: the reference that the
    closed-form box rules are checked against."""
    choices = [(lo,) if lo == hi else (lo, hi) for lo, hi in zip(box.lower, box.upper)]
    return [np.array(c, dtype=float) for c in itertools.product(*choices)]


def sample_point_in(rng: np.random.Generator, Q) -> np.ndarray:
    """A random member of Q (projection of a random ambient point)."""
    return Q.project(rng.normal(scale=3.0, size=Q.dim))


def random_instance(
    rng: np.random.Generator,
    n: int,
    bounded_constraint: bool = True,
    separated: bool = False,
) -> ProblemInstance:
    """A small random instance.

    With ``separated`` the attraction sets are singletons pushed outside the
    unit-ball constraint, keeping the fixed-point inner solver applicable.
    """
    constraint = Ball(np.zeros(n), 1.0) if bounded_constraint else AxisBox(
        np.full(n, -np.inf), np.full(n, np.inf)
    )
    p = int(rng.integers(1, 4))
    q = int(rng.integers(0, 3))
    attractions = []
    for _ in range(p):
        if separated:
            direction = rng.normal(size=n)
            direction /= max(np.linalg.norm(direction), 1e-9)
            s = Singleton(direction * rng.uniform(2.0, 5.0))
        else:
            s = random_set(rng, n, bounded_only=True)
        attractions.append(WeightedSet(s, float(rng.uniform(0.5, 2.0))))
    repulsions = [
        WeightedSet(random_set(rng, n, bounded_only=True), float(rng.uniform(0.1, 1.0)))
        for _ in range(q)
    ]
    return ProblemInstance(n, attractions, repulsions, constraint)
