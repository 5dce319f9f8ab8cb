import random

import pytest
from hypothesis import settings

from weq import Equation, LambdaVector, Morphism, Word, parse_system

settings.register_profile("exact", deadline=None)
settings.load_profile("exact")


def eq(left: str, right: str) -> Equation:
    """Single equation from unknown letters (x, y, z, ... ordering)."""
    system, _ = parse_system(f"{left} = {right}")
    return system.equations[0]


def eq_n(left: str, right: str, n: int) -> Equation:
    """Equation with an explicit unknown count (letters x=0, y=1, z=2)."""
    order = "xyz"
    mk = lambda s: Word(tuple(order.index(c) for c in s))
    return Equation(mk(left), mk(right), n)


def morph(*images: str, k: int | None = None) -> Morphism:
    return Morphism.from_images(*images, alphabet_size=k)


def classes_of(catalog) -> dict[LambdaVector, list[Morphism]]:
    """The classes of a catalog in class order: each normal with its
    members, read off the solutions' kinds."""
    classes = {LambdaVector(normal): [] for normal in catalog.counts.class_sizes}
    members = list(classes.values())
    for h, (_, c) in zip(catalog.solutions, catalog.kinds):
        if c >= 0:
            members[c].append(h)
    return classes


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240917)
