"""Shared fixtures: the worked example systems and random network generators."""

import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import crnbalance as cb
from crnbalance import rational

DATA = Path(__file__).parent / "data"


def data_path(name: str) -> Path:
    return DATA / name


def bench_workloads():
    """The benchmark's instance generators, `bench/workloads.py`."""
    bench = str(DATA.parent.parent / "bench")
    sys.path.insert(0, bench)
    try:
        import workloads
    finally:
        sys.path.remove(bench)
    return workloads


def bench_ladder(seed: int, r: int):
    """(network, power-law kinetics) of the benchmark's ladder generator,
    `bench/workloads.py` `ladder_power_law`, balanced at x = 1."""
    return bench_workloads().ladder_power_law(seed, r)


def term_system(norm: cb.PolyPLKinetics, j: int) -> cb.PowerLawKinetics:
    """Term system j of normalized poly-PL kinetics as its own kinetics:
    per reaction q the order row and rate k_q a_qj of its term j, exact
    where the kinetics has exact copies."""
    orders = norm.exact_term_orders or norm.term_orders
    coeffs = norm.exact_term_coeffs or norm.term_coeffs
    return cb.PowerLawKinetics([f[j] for f in orders],
                               [k * a[j] for k, a in zip(norm.exact_rates or norm.rates, coeffs)])


def exact_rank(mat) -> int:
    """The rank of a matrix over the rationals, through its integer rows."""
    return rational.rank_int(rational.integer_rows(mat))


def y_array(net: cb.ReactionNetwork) -> np.ndarray:
    """The complex matrix Y as floats."""
    return np.array(net.y, dtype=float)


def in_span(vectors: list, v) -> bool:
    """Whether v lies in the span of the given vectors (all as rows), exactly."""
    base = rational.matrix(vectors) if vectors else []
    vec = [rational.frac(x) for x in v]
    if not base:
        return all(x == 0 for x in vec)
    return exact_rank(base) == exact_rank(base + [vec])


def spans_equal(a: list, b: list) -> bool:
    """Whether two row-vector lists span the same subspace, exactly."""
    ma = rational.matrix(a) if a else []
    mb = rational.matrix(b) if b else []
    ra = exact_rank(ma) if ma else 0
    rb = exact_rank(mb) if mb else 0
    if ra != rb:
        return False
    return exact_rank(ma + mb) == ra


def matmul(a: list, b: list) -> list:
    """The product of two exact matrices, as lists of rows."""
    if a and b and len(a[0]) != len(b):
        raise ValueError("dimension mismatch")
    bt = rational.transpose(b)
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def nullspace(mat) -> list:
    """Basis of the right kernel {v : mat v = 0}, exactly."""
    m = rational.matrix(mat)
    if not m:
        raise ValueError("nullspace of an empty matrix is ambiguous")
    n_cols = len(m[0])
    red, pivots = rational.rref(m)
    basis = []
    for fc in (c for c in range(n_cols) if c not in pivots):
        v = [Fraction(0)] * n_cols
        v[fc] = Fraction(1)
        for row_idx, pc in enumerate(pivots):
            v[pc] = -red[row_idx][fc]
        basis.append(v)
    return basis


def column_basis(mat) -> list:
    """Columns of `mat` at the pivot positions: a basis of the column space."""
    m = rational.matrix(mat)
    if not m:
        return []
    pivots = rational.rref_int(rational.integer_rows(m))[1]
    return [[row[c] for row in m] for c in pivots]


@pytest.fixture(scope="session")
def fast_cfg():
    return cb.SolveConfig(seeds=16)


@pytest.fixture(scope="session")
def re1_net():
    species = ["X1", "X2", "X3"]
    complexes = [[2, 0, 0], [1, 1, 0], [0, 2, 0], [2, 0, 1], [1, 0, 2], [0, 0, 3]]
    reactions = [(0, 1, "r1"), (1, 0, "r2"), (1, 2, "r3"), (2, 1, "r4"),
                 (3, 4, "r5"), (4, 3, "r6"), (4, 5, "r7"), (5, 4, "r8")]
    return cb.build_network(species, complexes, reactions)


@pytest.fixture(scope="session")
def re1_powerlaw(re1_net):
    orders = [[2, 0, 0], [1, 1, 0], [1, 1, 0], [0, 0, 1],
              [2, 0, 0], [0, 0, 2], [0, 0, 2], [0, -1, -1]]
    return re1_net, cb.power_law(orders, [1] * 8)


@pytest.fixture(scope="session")
def re1_massaction(re1_net):
    rates = cb.rates_balancing_all_ones(re1_net)
    return re1_net, cb.mass_action_from(re1_net, rates)


@pytest.fixture(scope="session")
def counterexample():
    species = ["A1", "A2", "A3"]
    complexes = [[2, 2, 2], [0, 3, 3], [4, 1, 1], [6, 0, 0]]
    reactions = [(0, 1, "r1"), (1, 0, "r2"), (1, 2, "r3"), (2, 3, "r4"), (3, 0, "r5")]
    net = cb.build_network(species, complexes, reactions)
    orders = [[0, -1, 1], [-1, -1, 1], [-1, -1, 1], [0, -2, 0], [0, 0, -2]]
    kin = cb.power_law(orders, ["1", "1", "1", "1", "3/2"])
    return net, kin


@pytest.fixture(scope="session")
def mm_polypl():
    species = ["S1", "S2", "S3", "S4"]
    complexes = [[1, 1, 0, 0], [0, 0, 0, 1], [1, 0, 1, 0]]
    reactions = [(0, 1, "r1"), (1, 0, "r2"), (1, 2, "r3"), (2, 1, "r4")]
    net = cb.build_network(species, complexes, reactions)
    terms = [
        [(1, (1, 1, 0, 0)), (1, (1, 2, 0, 0)), (1, (1, 1, 0, 1))],
        [(1, (0, 0, 1, 0)), (1, (0, 1, 1, 0)), (1, (0, 0, 1, 1))],
        [(1, (0, 1, 0, 0))],
        [(1, (0, 0, 0, 1))],
    ]
    return net, cb.poly_pl(terms, [1, 1, 1, 1])


@pytest.fixture(scope="session")
def mm_rational(mm_polypl):
    """The saturating-denominator form of the enzyme system: rows 3 and 4
    share the factor 1 + S2 + S4."""
    net, _ = mm_polypl
    m = 4
    factor = cb.RationalFactor(
        np.array([1.0, 1.0, 1.0]),
        np.array([[0, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=float))
    numer = np.array([[1, 1, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]],
                     dtype=float)
    dens = ((), (), (factor,), (factor,))
    return net, cb.RationalKinetics(numer, np.ones(4), dens)


@pytest.fixture(scope="session")
def toy_pl_tik():
    """A <-> B with non-mass-action orders: PL-TIK, deficiency zero."""
    net = cb.build_network(["A", "B"], [[1, 0], [0, 1]], [(0, 1, "r1"), (1, 0, "r2")])
    kin = cb.power_law([[2, 0], [0, 1]], [1, 1])
    return net, kin


@pytest.fixture(scope="session")
def toy_polypl():
    """A <-> B poly-PL whose normalized terms repeat, so every term system is
    identical: weakly reversible, deficiency zero, termwise complex balanced,
    and the replica transform stays reactant determined."""
    net = cb.build_network(["A", "B"], [[1, 0], [0, 1]], [(0, 1, "r1"), (1, 0, "r2")])
    terms = [
        [("1/2", (1, 0)), ("1/2", (1, 0))],
        [("1/2", (0, 1)), ("1/2", (0, 1))],
    ]
    return net, cb.poly_pl(terms, [1, 1])


def random_network(rng: np.random.Generator) -> cb.ReactionNetwork:
    """A valid random desk-scale network (deterministic per rng state)."""
    for _ in range(200):
        m = int(rng.integers(1, 4))
        n = int(rng.integers(2, 6))
        pool = set()
        complexes = []
        for _ in range(n):
            for _ in range(50):
                vec = tuple(int(v) for v in rng.integers(0, 4, size=m))
                if vec not in pool:
                    pool.add(vec)
                    complexes.append(list(vec))
                    break
        if len(complexes) < 2:
            continue
        n = len(complexes)
        covered = [any(c[i] for c in complexes) for i in range(m)]
        if not all(covered):
            continue
        order = list(rng.permutation(n))
        reactions = [(order[i], order[i + 1]) for i in range(n - 1)]
        extra = int(rng.integers(0, 5))
        for _ in range(extra):
            a, b = int(rng.integers(0, n)), int(rng.integers(0, n))
            if a != b and (a, b) not in reactions:
                reactions.append((a, b))
        try:
            return cb.build_network([f"X{i+1}" for i in range(m)], complexes, reactions)
        except cb.CrnError:
            continue
    raise RuntimeError("random network generation failed")


def random_weakly_reversible_network(rng: np.random.Generator) -> cb.ReactionNetwork:
    """Random network whose linkage classes are directed cycles."""
    for _ in range(200):
        m = int(rng.integers(1, 4))
        n = int(rng.integers(2, 7))
        pool = set()
        complexes = []
        for _ in range(n):
            for _ in range(50):
                vec = tuple(int(v) for v in rng.integers(0, 4, size=m))
                if vec not in pool:
                    pool.add(vec)
                    complexes.append(list(vec))
                    break
        n = len(complexes)
        if n < 2 or not all(any(c[i] for c in complexes) for i in range(m)):
            continue
        order = list(rng.permutation(n))
        reactions = []
        start = 0
        while start < n:
            size = int(rng.integers(2, 4))
            cycle = order[start:start + size]
            if len(cycle) < 2:
                cycle = order[start - 1:start + size]  # merge a lone leftover
                reactions = [e for e in reactions
                             if e[0] != order[start - 1] and e[1] != order[start - 1]]
                start -= 1
                cycle = order[start:start + size + 1]
            for i in range(len(cycle)):
                reactions.append((cycle[i], cycle[(i + 1) % len(cycle)]))
            start += len(cycle)
        reactions = list(dict.fromkeys(reactions))
        try:
            net = cb.build_network([f"X{i+1}" for i in range(m)], complexes, reactions)
        except cb.CrnError:
            continue
        if cb.structural_invariants(net).weakly_reversible:
            return net
    raise RuntimeError("random weakly reversible network generation failed")
