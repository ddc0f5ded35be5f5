import math

import pytest

import ksbound as kb


@pytest.fixture(scope="session")
def cabello18():
    return kb.load_catalog("cabello18")


@pytest.fixture(scope="session")
def kernaghan20():
    return kb.load_catalog("kernaghan20")


@pytest.fixture(scope="session")
def kp36():
    return kb.load_catalog("kernaghan-peres36")


@pytest.fixture(scope="session")
def catalog_sets(cabello18, kernaghan20, kp36):
    return (cabello18, kernaghan20, kp36)


@pytest.fixture
def triad():
    return kb.make_set(
        "triad",
        3,
        [("a", (1, 0, 0)), ("b", (0, 1, 0)), ("c", (0, 0, 1))],
        [("a", "b", "c")],
    )


@pytest.fixture
def two_triads():
    # two triads sharing the vector a
    return kb.make_set(
        "two-triads",
        3,
        [
            ("a", (1, 0, 0)),
            ("b", (0, 1, 0)),
            ("c", (0, 0, 1)),
            ("d", (0, 1, 1)),
            ("e", (0, 1, -1)),
        ],
        [("a", "b", "c"), ("a", "d", "e")],
    )


@pytest.fixture(scope="session")
def fan50():
    # 50 triads (a, b, 0), (-b, a, 0), z all sharing z: 1225 connections on
    # 150 slots, so connections outnumber slots
    pairs = [(a, s - a) for s in range(2, 20) for a in range(1, s) if math.gcd(a, s - a) == 1]
    vectors, contexts = [("z", (0, 0, 1))], []
    for i, (a, b) in enumerate(pairs[:50]):
        vectors += [(f"p{i}", (a, b, 0)), (f"q{i}", (-b, a, 0))]
        contexts.append((f"p{i}", f"q{i}", "z"))
    return kb.make_set("fan50", 3, vectors, contexts)
