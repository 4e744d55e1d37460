"""Shared engines, generating sets, and round-trip fixture groups."""

from dataclasses import dataclass

import pytest

from lml.balls import FiniteGraph
from lml.words import (
    FinitePermutationEngine,
    FreeAbelianEngine,
    Presentation,
    parse_word,
    validate_genset,
)

AB = ("a", "b")


def wd(text, alphabet=AB):
    return parse_word(text, alphabet)


@pytest.fixture(scope="session")
def z_setup():
    engine = FreeAbelianEngine(("x",))
    genset = validate_genset(engine, [wd("x", ("x",)), wd("x^-1", ("x",))])
    return engine, genset


@pytest.fixture(scope="session")
def z2_setup():
    engine = FreeAbelianEngine(("x", "y"))
    alph = ("x", "y")
    genset = validate_genset(
        engine,
        [wd(t, alph) for t in ("x", "x^-1", "y", "y^-1")],
    )
    presentation = Presentation(alph, [wd("x y x^-1 y^-1", alph)])
    return engine, genset, presentation


@pytest.fixture(scope="session")
def bs_setup():
    from lml.words import bs_s10_setup

    return bs_s10_setup()


@dataclass(frozen=True)
class GroupFixture:
    """A finite group with an asymmetric S that makes balls rigid."""

    name: str
    images: tuple
    relator_texts: tuple
    s_texts: tuple
    rigid_radius: int
    order: int

    def engine(self):
        return FinitePermutationEngine(AB, self.images)

    def presentation(self):
        return Presentation(AB, [wd(t) for t in self.relator_texts])

    def genset(self):
        return validate_genset(self.engine(), [wd(t) for t in self.s_texts])


# Screened so that the rooted automorphism count of the ball at
# rigid_radius is exactly 1 (labels are then forced, reconstruction can
# round-trip).  The permutation images follow the left-to-right word
# convention: with b acting as multiplication by m, the word b a b^-1
# acts as a^(1/m), so the multiplier is the modular inverse of the
# exponent in the relator.
ROUND_TRIP_FIXTURES = (
    GroupFixture(
        name="S4",
        images=((1, 0, 2, 3), (1, 2, 3, 0)),
        relator_texts=("a^2", "b^4", "a b a b a b"),
        s_texts=("a", "b", "b^-1", "a b", "b^-1 a^-1"),
        rigid_radius=2,
        order=24,
    ),
    GroupFixture(
        name="F21",
        images=((1, 2, 3, 4, 5, 6, 0), (0, 4, 1, 5, 2, 6, 3)),
        relator_texts=("a^7", "b^3", "b a b^-1 a^-2"),
        s_texts=(
            "a", "a^-1", "b", "b^-1",
            "a b", "b^-1 a^-1", "b a^-1", "a b^-1",
        ),
        rigid_radius=2,
        order=21,
    ),
    GroupFixture(
        name="F42",
        images=((1, 2, 3, 4, 5, 6, 0), (0, 5, 3, 1, 6, 4, 2)),
        relator_texts=("a^7", "b^6", "b a b^-1 a^-3"),
        s_texts=("a", "a^-1", "b", "b^-1", "a b^2", "b^-2 a^-1"),
        rigid_radius=2,
        order=42,
    ),
)


@pytest.fixture(scope="session", params=ROUND_TRIP_FIXTURES, ids=lambda f: f.name)
def group_fixture(request):
    return request.param


# Two edges of each rigid group ball, by (name, radius), whose swap keeps
# every color of the discrete ball: like-mode refinement passes the
# swapped ball, and only the isomorphism check rejects it.
COLOR_BLIND_SWAPS = {
    ("S4", 2): (((1, 7), (3, 9)), ((1, 9), (3, 7))),
    ("S4", 3): (((1, 2), (3, 5)), ((1, 3), (2, 5))),
    ("F21", 2): (((5, 6), (7, 8)), ((5, 7), (6, 8))),
    ("F21", 3): (((5, 6), (7, 8)), ((5, 7), (6, 8))),
    ("F42", 2): (((7, 20), (8, 18)), ((7, 8), (18, 20))),
    ("F42", 3): (((1, 8), (3, 20)), ((1, 20), (3, 8))),
}


def swapped(graph, old, new):
    """graph with the edges old replaced by the edges new."""
    edges = (set(graph.edges) - set(old)) | set(new)
    return FiniteGraph(graph.vertex_count, tuple(sorted(edges)))
