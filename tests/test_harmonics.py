"""Gowers norms, correlations, projected phases, box and cut norms."""

import cmath
import dataclasses
import math
import random
import time
import tracemalloc
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from gowerslab import harmonics
from gowerslab.errors import CapExceeded, PostconditionError
from gowerslab.groups import FinAbGroup, Homomorphism, _chunk_add
from gowerslab.harmonics import (
    ExactNorm,
    GroupFunction,
    _character_factor,
    _difference_counts,
    _transform,
    box_norm_4cycle,
    correlation,
    cut_norm_lower,
    fourier_coefficients,
    gowers_norm,
    gowers_norm_exact,
    obstruction_check,
    phase,
    project_phase,
    projected_as_average,
)
from gowerslab.instances import (
    bilinear_function,
    random_bounded_function,
    random_phase_polynomial,
    random_surjection,
    random_unimodular_function,
)
from gowerslab.polymaps import PolyMap, binom, cyclic_lift, polynomial_cross_section
from test_groups import deadline

TOL = 1e-9


# ---------------------------------------------------------------------------
# exact phases: the int64 array over one modulus against the Fraction oracle


def _oracle_from_phases(phases):
    """The exact phases as reduced Fractions in [0, 1), one per element."""
    return tuple(Fraction(p) % 1 for p in phases)


def _oracle_values(ph):
    return np.array([cmath.exp(2j * math.pi * float(p)) for p in ph], dtype=np.complex128)


def _oracle_character(group, t):
    return _oracle_from_phases(
        sum((Fraction(tj * xj, mj) for tj, xj, mj in zip(t, x.coords, group.orders)), start=Fraction(0))
        for x in group.elements()
    )


def _oracle_multiply(ph, other):
    return _oracle_from_phases(a + b for a, b in zip(ph, other))


def _oracle_translate(group, ph, a):
    """x -> ph(x + a), one element at a time."""
    return tuple(ph[group.index_of((x + a).coords)] for x in group.elements())


def _oracle_phase_denominator(ph):
    return math.lcm(*(p.denominator for p in ph))


def _oracle_phase_ints(ph, N):
    return np.array([(p.numerator * (N // p.denominator)) % N for p in ph], dtype=np.int64)


def _assert_is_oracle(f, ph):
    """f holds exactly the phases ph: same modulus, integers, view and values bit for bit."""
    N = _oracle_phase_denominator(ph)
    assert f.modulus == N
    assert f.phase_num.dtype == np.int64 and np.array_equal(f.phase_num, _oracle_phase_ints(ph, N))
    assert f.phases == ph
    assert f.values.tobytes() == _oracle_values(ph).tobytes()


RATIO_CASES = {
    "unreduced": [(2, 4), (3, 6), (0, 5), (10, 4), (6, 9)],
    "negative": [(1, -4), (-3, 6), (-5, -10), (7, -3), (0, -2)],
    "beyond int64": [(2**70 + 1, 3), (-(2**80), 2**78 * 5), (3**50, 3**49 * 2), (2**64, 2**64), (1, 1)],
}


@pytest.mark.parametrize("case", list(RATIO_CASES))
def test_from_phases_and_ratios_match_fraction_oracle(case):
    pairs = RATIO_CASES[case]
    G = FinAbGroup((5,))
    ph = _oracle_from_phases(Fraction(n, d) for n, d in pairs)
    _assert_is_oracle(GroupFunction.from_phases(G, [Fraction(n, d) for n, d in pairs]), ph)
    _assert_is_oracle(GroupFunction._from_ratios(G, pairs), ph)


def test_from_phases_accepts_ints_and_strings():
    G = FinAbGroup((4,))
    phases = [3, "1/3", Fraction(-1, 6), 0.25]
    _assert_is_oracle(GroupFunction.from_phases(G, phases), _oracle_from_phases(phases))


@pytest.mark.parametrize("orders", [(), (1,), (6,), (2, 3, 4), (4, 6, 9), (2, 2, 8)])
def test_ones_character_phase_and_bilinear_match_fraction_oracle(orders):
    G = FinAbGroup(orders)
    rng = random.Random(f"oracle/{orders}")
    _assert_is_oracle(GroupFunction.ones(G), (Fraction(0),) * G.order)
    ts = [tuple(rng.randrange(-50, 50) for _ in orders) for _ in range(4)]
    ts.append(tuple((2**80 + 3) * (-1) ** j + 3**60 * j for j in range(len(orders))))  # huge t
    for t in ts:
        _assert_is_oracle(GroupFunction.character(G, t), _oracle_character(G, t))
    P = random_phase_polynomial(rng, G, 2)
    N = P.codomain.orders[0]
    _assert_is_oracle(phase(P), _oracle_from_phases(Fraction(v, N) for v in P.values[:, 0].tolist()))
    f = random_unimodular_function(random.Random(7), G, denominator=12)
    r = random.Random(7)
    _assert_is_oracle(f, _oracle_from_phases(Fraction(r.randrange(12), 12) for _ in range(G.order)))


def test_bilinear_function_matches_fraction_oracle():
    for l in (1, 2, 3):
        f = bilinear_function(l)
        xs = [x.coords for x in f.group.elements()]
        _assert_is_oracle(f, _oracle_from_phases(Fraction(sum(a * b for a, b in zip(x[:l], x[l:])), 2) for x in xs))


@pytest.mark.parametrize("orders", [(1,), (12,), (2, 6), (3, 4, 2)])
def test_operations_match_fraction_oracle(orders):
    G = FinAbGroup(orders)
    rng = random.Random(f"ops/{orders}")
    fs = [random_unimodular_function(rng, G, denominator=N) for N in (1, 4, 6, 360)]
    fs.append(GroupFunction.character(G, [rng.randrange(m) for m in orders]))
    for f in fs:
        for a in rng.sample(list(G.elements()), min(G.order, 4)):
            _assert_is_oracle(f.translate(a), _oracle_translate(G, f.phases, a))
        for g in fs:
            _assert_is_oracle(f.multiply(g), _oracle_multiply(f.phases, g.phases))


def test_multiply_reduces_the_modulus():
    G = FinAbGroup((3,))
    half = GroupFunction.from_phases(G, [Fraction(1, 2)] * 3)
    one = half.multiply(half)
    assert one.modulus == 1 and one.phase_num.tolist() == [0, 0, 0]
    _assert_is_oracle(one, (Fraction(0),) * 3)
    # moduli p r and q r with lcm p q r past 2^63, whose product reduces to p q < 2^53
    p, q, r = 67108859, 67108837, 67108819
    f = GroupFunction.from_phases(G, [Fraction(1, p) + Fraction(1, r), Fraction(2, p), Fraction(1, r)])
    g = GroupFunction.from_phases(G, [Fraction(1, q) - Fraction(1, r), Fraction(3, q), -Fraction(1, r)])
    assert f.modulus == p * r and g.modulus == q * r and math.lcm(f.modulus, g.modulus) > 2**63
    h = f.multiply(g)
    assert h.modulus == p * q
    _assert_is_oracle(h, _oracle_multiply(f.phases, g.phases))


@pytest.mark.parametrize("N", list(range(1, 201)) + [360, 2520, 4096])
def test_values_match_cmath_at_every_residue(N):
    # e(a/N) as one numpy exp of the correctly rounded a/N, bit for bit the per-element cmath.exp
    G = FinAbGroup((N,))
    f = GroupFunction._exact(G, np.arange(N), N)
    assert f.modulus == N
    assert f.values.tobytes() == _oracle_values(Fraction(a, N) for a in range(N)).tobytes()


def test_phase_num_is_read_only():
    f = random_unimodular_function(random.Random(1), FinAbGroup((2, 3)), denominator=6)
    with pytest.raises(ValueError):
        f.phase_num[0] = 1


def test_phase_modulus_above_2_53_is_refused():
    G = FinAbGroup((2,))
    assert GroupFunction.from_phases(G, [Fraction(1, 2**53), 0]).modulus == 2**53
    for phases in ([Fraction(1, 2**53 + 1), 0], [Fraction(1, 2**70), 0], [Fraction(1, 2**27), Fraction(1, 3**17)]):
        with pytest.raises(CapExceeded):
            GroupFunction.from_phases(G, phases)
    # a product whose least common denominator passes 2^53
    f = GroupFunction.from_phases(G, [Fraction(1, 2**30), 0])
    g = GroupFunction.from_phases(G, [Fraction(1, 3**19), 0])
    with pytest.raises(CapExceeded):
        f.multiply(g)


def test_random_bounded_function_matches_cmath_draws():
    G = FinAbGroup((4, 6))
    rng = random.Random(31)
    expected = []
    for _ in range(G.order):
        r = rng.random()
        expected.append(r * cmath.exp(2j * math.pi * rng.random()))
    f = random_bounded_function(random.Random(31), G)
    assert f.values.tobytes() == np.array(expected).tobytes()
    assert not f.is_exact() and f.phases is None


# ---------------------------------------------------------------------------
# Gowers norms


def test_norm_of_ones_is_one_every_order():
    f = GroupFunction.ones(FinAbGroup((6,)))
    for order in (1, 2, 3, 4):
        assert abs(gowers_norm(f, order) - 1.0) < TOL


def test_norm_of_phase_polynomial_is_one():
    # e(P) with deg P <= k has U^{k+1} norm exactly 1
    Z8 = FinAbGroup((8,))
    P = PolyMap(Z8, Z8, tuple((x * x,) for x in range(8)))  # degree 2
    assert P.degree == 2
    f = phase(P)
    assert abs(gowers_norm(f, 3) - 1.0) < TOL


def test_bilinear_u3_is_one():
    for l in (1, 2, 3):
        assert abs(gowers_norm(bilinear_function(l), 3) - 1.0) < TOL


def test_float_norm_matches_exact_norm():
    rng = random.Random(11)
    for _ in range(5):
        G = FinAbGroup((rng.choice((4, 6)),))
        f = random_unimodular_function(rng, G, denominator=12)
        for order in (1, 2, 3):
            exact = gowers_norm_exact(f, order)
            assert abs(gowers_norm(f, order) - exact.value) < TOL


def _add_table(orders):
    """Oracle index table T[h, x] = index of h + x, by the coordinate formula."""
    G = FinAbGroup(orders)
    X = G.coords_array
    return (X[:, None, :] + X[None, :, :]) % G.moduli @ G.radix


def _direct_power_oracle(vals, order, add):
    """||vals||_{U^order}^{2^order} by the multiplicative-derivative recursion, one gather per row."""
    if order == 1:
        return abs(complex(vals.mean())) ** 2
    if order == 2:
        corr = (vals[add] * np.conj(vals)[None, :]).mean(axis=1)
        return float(np.mean(np.abs(corr) ** 2))
    cv = np.conj(vals)
    return float(np.mean([_direct_power_oracle(vals[row] * cv, order - 1, add) for row in add]))


def _oracle_groups():
    """The fixed cases and eight seeded groups, every one of order at most 64."""
    rng = random.Random("power-oracle")
    groups = [(), (1,), (2,) * 6, (2, 4, 8), (64,), (3, 9), (2, 3, 5)]
    while len(groups) < 15:
        orders = []
        while rng.random() < 0.8:
            m = rng.randint(1, 9)
            if math.prod(orders) * m > 64:
                break
            orders.append(m)
        if tuple(orders) not in groups:
            groups.append(tuple(orders))
    return groups


@pytest.mark.parametrize("orders", _oracle_groups(), ids=lambda o: "x".join(map(str, o)) or "trivial")
def test_norm_matches_direct_oracle(orders):
    # orders 1-4 wherever |G|^order <= 2^24, on a bounded, a unimodular and
    # two exact-phase functions; exact phases also against the integer count
    G = FinAbGroup(orders)
    rng = random.Random(f"power/{orders}")
    unimodular = np.exp(2j * np.pi * np.array([rng.random() for _ in range(G.order)]))
    fs = [
        random_bounded_function(rng, G),
        GroupFunction(G, unimodular),
        random_unimodular_function(rng, G, denominator=12),
        phase(random_phase_polynomial(rng, G, 2)),
    ]
    add = _add_table(G.orders)
    for f in fs:
        for order in (1, 2, 3, 4):
            if G.order**order > 2**24:
                continue
            value = gowers_norm(f, order)
            direct = max(_direct_power_oracle(f.values, order, add), 0.0) ** (1.0 / 2**order)
            assert abs(value - direct) < 1e-12, (order, value, direct)
            if f.is_exact():
                # the exact cost: |G|^(order+1) counted tuples into N bins
                exact = gowers_norm_exact(f, order, cap=max(G.order ** (order + 1), f.modulus)).value
                assert abs(value - exact) < 1e-12, (order, value, exact)


@pytest.mark.parametrize("block", [1, 7, 64])
def test_norm_is_independent_of_the_block_size(monkeypatch, block):
    # blocks of one row and one character column up to whole tables
    rng = random.Random(block)
    cases = [(G, random_bounded_function(rng, G)) for G in map(FinAbGroup, [(), (5,), (2, 6), (2, 2, 4)])]
    expected = [[gowers_norm(f, order) for order in (2, 3, 4)] for _, f in cases]
    monkeypatch.setattr(harmonics, "_BLOCK", block)
    for (G, f), values in zip(cases, expected):
        for order, value in zip((2, 3, 4), values):
            assert abs(gowers_norm(f, order) - value) < 1e-12, (G.orders, order)


def test_character_matrix_is_exact():
    # W[x, xi] = e(-x.xi) as a table of roots of unity of order exp(G), on one chunk
    G = FinAbGroup((2, 4, 6))
    assert G.chunks == (G.orders,)
    W = _character_factor(G.orders)
    for x in G.elements():
        for xi in G.elements():
            theta = sum(Fraction(a * b, m) for a, b, m in zip(x.coords, xi.coords, G.orders))
            expected = cmath.exp(-2j * math.pi * float(theta % 1))
            assert abs(W[G.index_of(x.coords), G.index_of(xi.coords)] - expected) < 1e-15


@pytest.mark.parametrize("orders", [(), (7,), (2,) * 10, (4, 8, 9, 5), (2, 300, 3), (257, 2)])
def test_chunked_transform_is_the_character_matrix(orders):
    # chunk by chunk, with np.fft.fft on an axis of more than 256 elements,
    # the identity rows go to W[x, xi] = e(-x.xi), as fourier_coefficients has it
    G = FinAbGroup(orders)
    F = _transform(np.eye(G.order, dtype=np.complex128), G).reshape(G.order, G.order)
    X = G.coords_array
    theta = (X[:, None, :] * X[None, :, :] % G.moduli / G.moduli).sum(axis=2)
    assert np.abs(F - np.exp(-2j * np.pi * theta)).max() < 1e-9


def test_one_chunk_transform_is_one_product():
    # on at most 256 elements the transform is M @ W itself, bit for bit
    G = FinAbGroup((4, 8, 8))
    rng = random.Random(256)
    M = np.stack([random_bounded_function(rng, G).values for _ in range(4)])
    assert np.array_equal(_transform(M, G), M @ _character_factor(G.orders))


def test_norm_cost_cap_boundary():
    # the kernel makes |G|^order multiplies: 12^3 = 1,728 runs, 1,727 refuses
    f = GroupFunction.ones(FinAbGroup((12,)))
    assert abs(gowers_norm(f, 3, cap=12**3) - 1.0) < TOL
    with pytest.raises(CapExceeded):
        gowers_norm(f, 3, cap=12**3 - 1)


def test_norm_caps_refuse_a_huge_order_at_once():
    # |G|^order and |G|^(order+1) are compared from bit lengths, never taken
    f = GroupFunction.ones(FinAbGroup((4,)))
    with deadline(2.0):
        for norm in (gowers_norm, gowers_norm_exact):
            with pytest.raises(CapExceeded):
                norm(f, 10**9)


def test_norms_and_translate_allocate_no_square_array():
    # an array of |G|^2 int64 or complex entries is 134 or 268 MB on Z_4093;
    # U^2, U^3, translate and the exact U^1 each stay far below one of them
    G = FinAbGroup((4093,))
    f = random_unimodular_function(random.Random(4093), G, denominator=12)
    # x -> x^2/4093 has N = |G|: its Gram matrix of row histograms is 4093 x 4093
    square = GroupFunction._exact(G, np.arange(G.order) ** 2 % G.order, G.order)
    calls = [
        lambda: gowers_norm(f, 2),
        lambda: gowers_norm(f, 3, cap=G.order**3),
        lambda: f.translate(G.element((5,))),
        lambda: gowers_norm_exact(f, 1),
        lambda: gowers_norm_exact(square, 1),
    ]
    for call in calls:
        tracemalloc.start()
        try:
            call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < G.order**2, peak
    g = f.translate(G.element((5,)))
    assert g.phases[:3] == f.phases[5:8] and g.phases[-5] == f.phases[0]
    P = square.phase_num[None]
    assert gowers_norm_exact(square, 1).counts == tuple(_difference_counts(P, G.order).tolist())


@pytest.mark.parametrize("block", [1, 7, 300, None])
@pytest.mark.parametrize("N", [1, 12, 64])
def test_gram_diagonals_in_blocks_match_the_difference_counts(monkeypatch, block, N):
    # blocks of one Gram row, of a few, of several per block, and the default
    rng = np.random.default_rng(N)
    M = rng.integers(0, N, size=(5, 64))
    if block is not None:
        monkeypatch.setattr(harmonics, "_BLOCK", block)
    counts = harmonics._gram_diagonals(M, N)
    assert counts.dtype == np.int64 and np.array_equal(counts, _difference_counts(M, N))


def test_a_second_pass_over_many_chunks_misses_no_cache():
    # twelve distinct chunk runs, more than the eight each cache used to keep
    rng = random.Random(12)
    groups_ = [FinAbGroup(o) for o in [(2,), (3,), (5,), (6,), (7,), (9,), (10,), (11,), (13,), (2, 3, 5), (4, 4), (2, 2, 7)]]
    fs = [random_bounded_function(rng, G) for G in groups_]
    caches = (harmonics._character_factor, _chunk_add)

    def run():  # U^3 reads both the add table and the character factor of each chunk
        return [gowers_norm(f, 3) for f in fs]

    first = run()
    misses = [c.cache_info().misses for c in caches]
    assert all(c.cache_info().currsize >= len(fs) for c in caches)
    assert run() == first
    assert [c.cache_info().misses for c in caches] == misses


@pytest.mark.parametrize("orders", [(2,) * 13, (8192,)], ids=["2^13", "8192"])
def test_u2_on_8192_elements_matches_the_fourier_coefficients(orders):
    # ||f||_{U^2}^4 = sum_xi |f_hat(xi)|^4, in two chunk factors or one FFT
    G = FinAbGroup(orders)
    f = random_bounded_function(random.Random(8192), G)
    start = time.perf_counter()
    value = gowers_norm(f, 2)
    took = time.perf_counter() - start
    expected = float(np.sum(np.abs(fourier_coefficients(f)) ** 4)) ** 0.25
    assert abs(value - expected) < 1e-12
    assert took < 0.5, took


def test_bilinear_l6_u3_at_cap_2_36():
    # |G| = 4,096: 4,096 derivative rows through factors of 256 and 16 elements
    f = bilinear_function(6)
    with deadline(10.0):
        assert abs(gowers_norm(f, 3, cap=2**36) - 1.0) < TOL


def test_bilinear_l5_u3_and_box():
    # |G| = 1,024: U^3 costs 2^30 multiplies, inside the default cap
    f = bilinear_function(5)
    assert abs(gowers_norm(f, 3) - 1.0) < TOL
    assert abs(box_norm_4cycle(f, 5) - 2 ** (-5 / 4)) < TOL


def _exact_norm_oracle(f, order):
    """The exact count by brute force: one bincount per (h_1, ..., h_order)."""
    G = f.group
    N = _oracle_phase_denominator(f.phases)
    add = _add_table(G.orders)
    counts = np.zeros(N, dtype=np.int64)

    def rec(D, k):
        if k == 0:
            counts_local = np.bincount(D, minlength=N)
            counts[: len(counts_local)] += counts_local
            return
        for row in add:
            rec((D[row] - D) % N, k - 1)

    rec(_oracle_phase_ints(f.phases, N), order)
    return ExactNorm(N, tuple(int(c) for c in counts), G.order ** (order + 1), order)


EXACT_ORACLE_GROUPS = [
    (),
    (1,),
    (2,),
    (3,),
    (5,),
    (8,),
    (12,),
    (64,),
    (2, 3),
    (2, 2, 2),
    (4, 4),
    (3, 9),
    (2, 4, 8),
]


@pytest.mark.parametrize(
    "orders",
    sorted(set(_oracle_groups()) | set(EXACT_ORACLE_GROUPS)),
    ids=lambda o: "x".join(map(str, o)) or "trivial",
)
def test_translate_matches_add_table_row(orders):
    G = FinAbGroup(orders)
    f = random_unimodular_function(random.Random(f"translate/{orders}"), G, denominator=12)
    add = _add_table(G.orders)
    for a in G.elements():
        row = add[G.index_of(a.coords)]
        g = f.translate(a)
        assert np.array_equal(g.values, f.values[row])
        assert g.phases == tuple(f.phases[i] for i in row)


@pytest.mark.parametrize("orders", EXACT_ORACLE_GROUPS, ids=lambda o: "x".join(map(str, o)) or "trivial")
def test_exact_norm_matches_oracle(orders):
    # every order 1-4 whose oracle makes at most 4096 bincounts, with each
    # modulus; one phase is 1/N, so the denominator is exactly N (220 cases)
    G = FinAbGroup(orders)
    rng = random.Random(f"exact/{orders}")
    for N in (1, 2, 6, 12, 360):
        for order in (1, 2, 3, 4):
            if G.order**order > 4096:
                continue
            phases = [Fraction(1, N)] + [Fraction(rng.randrange(N), N) for _ in range(G.order - 1)]
            f = GroupFunction.from_phases(G, phases)
            assert gowers_norm_exact(f, order) == _exact_norm_oracle(f, order), (N, order)


@pytest.mark.parametrize("orders, N", [((2,) * 8, 360), ((8,), 1009 * 1013)])
def test_exact_norm_matches_oracle_large_modulus(orders, N):
    # N > |G|: the row differences are counted directly, on |G| = 256 in
    # several blocks of rows, and with no N x N array for N near 10^6
    G = FinAbGroup(orders)
    rng = random.Random(N)
    f = GroupFunction.from_phases(G, [Fraction(rng.randrange(N), N) for _ in range(G.order)])
    assert f.modulus == N
    assert gowers_norm_exact(f, 2) == _exact_norm_oracle(f, 2)


@pytest.mark.parametrize("N", [257, 360, 1009 * 1013])
def test_difference_counts_fold_matches_modulo_oracle(N):
    # every row holds 0 and N - 1, so differences of +-(N - 1) hit both ends
    # of the 2N bins; 70 rows of 256 entries run in two blocks of 2^22 // (70 * 256) = 234 columns
    rng = np.random.default_rng(N)
    M = rng.integers(0, N, size=(70, 256))
    M[:, 0], M[:, -1] = 0, N - 1
    M[::2, 1] = N - 1
    counts = _difference_counts(M, N)
    assert counts.shape == (N,) and counts.dtype == np.int64
    assert counts.sum() == 70 * 256**2
    # oracle: the differences reduced % N, counted in N bins
    assert np.array_equal(counts, np.bincount(((M[:, None, :] - M[:, :, None]) % N).ravel(), minlength=N))


def test_exact_norm_cap_bounds_the_count_vector():
    # |G|^(order+1) is 8 on Z2, but N = 2^40 bins would be 8 TiB of counts
    G = FinAbGroup((2,))
    f = GroupFunction.from_phases(G, [Fraction(1, 2**40), 0])
    for order in (1, 2):
        with pytest.raises(CapExceeded):
            gowers_norm_exact(f, order)
    f = GroupFunction.from_phases(G, [Fraction(1, 2**10), 0])
    assert gowers_norm_exact(f, 2, cap=2**10) == _exact_norm_oracle(f, 2)
    with pytest.raises(CapExceeded):
        gowers_norm_exact(f, 2, cap=2**10 - 1)


def test_exact_norm_bilinear_l4_u3():
    # |G| = 256, 2^32 counted tuples: every one lands on phase 0, so U^3 = 1
    t0 = time.perf_counter()
    e = gowers_norm_exact(bilinear_function(4), 3, cap=2**32)
    elapsed = time.perf_counter() - t0
    assert e.modulus == 2 and e.counts == (2**32, 0) and e.scale == 2**32
    assert e.value == 1.0
    assert elapsed < 2.0, f"exact U^3 of bilinear_function(4) took {elapsed:.2f}s"


@pytest.mark.parametrize("seed", range(8))
def test_exact_norm_value_matches_float_norm(seed):
    # random phases mod N (N = 360 included) and a quadratic phase polynomial,
    # U^1-U^3 on |G| <= 64, U^4 on |G| <= 16
    rng = random.Random(800 + seed)
    groups = ((2, 4, 8), (4, 4, 4), (64,), (3, 9), (2, 2, 2, 2), (12,))
    G = FinAbGroup(groups[seed % len(groups)])
    fs = [
        random_unimodular_function(rng, G, denominator=N) for N in (2, 6, 12, 360)
    ] + [phase(random_phase_polynomial(rng, G, 2))]
    for f in fs:
        for order in (1, 2, 3, 4) if G.order <= 16 else (1, 2, 3):
            exact = gowers_norm_exact(f, order, cap=2**30).value
            assert abs(exact - gowers_norm(f, order)) < TOL, (f.modulus, order)


def test_exact_norm_requires_phases():
    f = GroupFunction(FinAbGroup((3,)), [1, 1, 1])
    with pytest.raises(ValueError):
        gowers_norm_exact(f, 2)


def test_norm_cost_cap():
    from gowerslab.errors import CapExceeded

    f = GroupFunction.ones(FinAbGroup((64,)))
    with pytest.raises(CapExceeded):
        gowers_norm(f, 3, cap=100)


# ---------------------------------------------------------------------------
# correlation


def test_correlation_with_self_is_one():
    rng = random.Random(0)
    f = random_unimodular_function(rng, FinAbGroup((7,)))
    assert abs(correlation(f, f) - 1.0) < 1e-12


def test_distinct_characters_are_orthogonal():
    G = FinAbGroup((5,))
    a = GroupFunction.character(G, (1,))
    b = GroupFunction.character(G, (3,))
    assert abs(correlation(a, b)) < 1e-12


def test_gauss_sum_correlation():
    G = FinAbGroup((5,))
    f = GroupFunction.from_phases(G, [Fraction(x * x, 5) for x in range(5)])
    g = GroupFunction.from_phases(G, [Fraction(x, 5) for x in range(5)])
    # oracle: the 5-term exact sum |sum_x e((x^2 - x)/5)| / 5 = 5^{-1/2}
    s = sum(cmath.exp(2j * math.pi * (x * x - x) / 5) for x in range(5))
    assert abs(abs(s) / 5 - 5**-0.5) < 1e-12
    assert abs(abs(correlation(f, g)) - 5**-0.5) < 1e-12


# ---------------------------------------------------------------------------
# phase tables


def test_phase_of_zero_polynomial():
    P = PolyMap.constant(FinAbGroup((5,)), FinAbGroup((3,)).zero)
    f = phase(P)
    assert np.allclose(f.values, 1.0)


def test_phase_of_linear_is_character():
    m = 6
    Zm = FinAbGroup((m,))
    P = PolyMap(Zm, Zm, tuple((x,) for x in range(m)))
    f = phase(P)
    chi = GroupFunction.character(Zm, (1,))
    assert np.allclose(f.values, chi.values)


def test_phase_binomial_on_z4():
    Z4 = FinAbGroup((4,))
    P = PolyMap(Z4, FinAbGroup((2,)), tuple((binom(x, 2) % 2,) for x in range(4)))
    f = phase(P)
    assert np.allclose(f.values, [1, 1, -1, -1])


def test_phase_rejects_non_polynomial():
    bad = PolyMap(FinAbGroup((3,)), FinAbGroup((6,)), ((0,), (1,), (5,)))
    with pytest.raises(ValueError):
        phase(bad)


# ---------------------------------------------------------------------------
# projected phases


def _identity_projection(phi):
    return Homomorphism.identity(phi.domain)


def test_project_phase_along_identity():
    Z4 = FinAbGroup((4,))
    phi = PolyMap(Z4, Z4, tuple((x,) for x in range(4)))
    pp = project_phase(phi, _identity_projection(phi))
    assert np.allclose(pp.function.values, phase(phi).values)
    assert pp.fiber_size == 1


def test_project_phase_z4_to_z2_vanishes():
    B, A = FinAbGroup((4,)), FinAbGroup((2,))
    phi = PolyMap(B, FinAbGroup((4,)), tuple((y,) for y in range(4)))
    pp = project_phase(phi, Homomorphism(B, A, [[1]]))
    # fibers {0,2} -> (1 + (-1))/2 and {1,3} -> (i + (-i))/2: identically zero,
    # and exactly so: phases in each fiber pair up at distance 1/2
    assert np.max(np.abs(pp.function.values)) < 1e-12
    assert pp.fiber_counts.shape == (2, 4) and not pp.fiber_counts.flags.writeable
    for counts in pp.fiber_counts:
        assert all(counts[a] == counts[(a + 2) % 4] for a in range(4))


def test_project_zero_phase_gives_ones():
    B, A = FinAbGroup((6,)), FinAbGroup((3,))
    phi = PolyMap.constant(B, FinAbGroup((2,)).zero)
    pp = project_phase(phi, Homomorphism(B, A, [[1]]))
    assert np.allclose(pp.function.values, 1.0)


def test_project_phase_requires_surjective():
    B, A = FinAbGroup((4,)), FinAbGroup((4,))
    phi = PolyMap(B, FinAbGroup((4,)), tuple((y,) for y in range(4)))
    with pytest.raises(ValueError):
        project_phase(phi, Homomorphism(B, A, [[2]]))


def test_projection_metadata():
    B, A = FinAbGroup((9, 3)), FinAbGroup((3, 3))
    phi = PolyMap.constant(B, FinAbGroup((3,)).zero)
    tau = Homomorphism(B, A, [[1, 0], [0, 1]])
    pp = project_phase(phi, tau)
    assert pp.torsion == (3, 9)
    assert pp.rank_preserving  # rk = 2 on both sides


# ---------------------------------------------------------------------------
# obstruction inequality


def test_obstruction_equality_for_projected_itself():
    Z4 = FinAbGroup((4,))
    phi = PolyMap(Z4, Z4, tuple((x,) for x in range(4)))  # degree 1
    pp = project_phase(phi, Homomorphism.identity(Z4))
    rep = obstruction_check(pp.function, pp)
    assert abs(rep.correlation - 1.0) < TOL
    assert abs(rep.norm - 1.0) < TOL


def test_obstruction_zero_function():
    Z4 = FinAbGroup((4,))
    phi = PolyMap(Z4, Z4, tuple((x,) for x in range(4)))
    pp = project_phase(phi, Homomorphism.identity(Z4))
    zero = GroupFunction(Z4, [0, 0, 0, 0])
    rep = obstruction_check(zero, pp)
    assert rep.correlation < 1e-15 and rep.norm < 1e-15


def test_obstruction_random_signs():
    rng = random.Random(21)
    B = FinAbGroup((4, 4))
    A = FinAbGroup((2, 4))
    tau = Homomorphism(B, A, [[1, 0], [0, 1]])
    phi = random_phase_polynomial(rng, B, 2)
    pp = project_phase(phi, tau)
    for _ in range(10):
        f = GroupFunction(A, [rng.choice((-1.0, 1.0)) for _ in range(A.order)])
        rep = obstruction_check(f, pp, order=3)
        assert rep.correlation <= rep.norm + TOL


# ---------------------------------------------------------------------------
# projected phase as an average of polynomial phases


def test_average_identity_projection_single_member():
    Z4 = FinAbGroup((4,))
    phi = PolyMap(Z4, Z4, tuple((x,) for x in range(4)))
    pp = project_phase(phi, Homomorphism.identity(Z4))
    fam = projected_as_average(pp, polynomial_cross_section(pp.tau))
    assert len(fam.members) == 1
    assert np.allclose(fam.members[0].values, phase(phi).values)


def test_average_z4_to_z2_two_members():
    B, A = FinAbGroup((4,)), FinAbGroup((2,))
    phi = PolyMap(B, FinAbGroup((4,)), tuple((y,) for y in range(4)))
    pp = project_phase(phi, Homomorphism(B, A, [[1]]))
    fam = projected_as_average(pp, cyclic_lift(2, 1, 2))
    assert len(fam.members) == 2
    avg = sum(m.values for m in fam.members) / 2
    assert np.max(np.abs(avg - pp.function.values)) < 1e-12


def test_average_z9_to_z3_member_degrees():
    B, A = FinAbGroup((9,)), FinAbGroup((3,))
    phi = PolyMap(B, FinAbGroup((9,)), tuple((y,) for y in range(9)))  # degree 1
    pp = project_phase(phi, Homomorphism(B, A, [[1]]))
    iota = cyclic_lift(3, 1, 2)
    fam = projected_as_average(pp, iota)
    assert len(fam.members) == 3
    assert all(d <= iota.degree * pp.degree for d in fam.member_degrees)


def test_average_refuses_what_the_translates_do_not_reproduce():
    B, A = FinAbGroup((4,)), FinAbGroup((2,))
    phi = PolyMap(B, FinAbGroup((4,)), tuple((y,) for y in range(4)))
    pp = project_phase(phi, Homomorphism(B, A, [[1]]))
    iota = cyclic_lift(2, 1, 2)
    # fiber counts over x = 0 and x = 1 swapped: equal totals, other multisets per x
    with pytest.raises(PostconditionError, match="fiber"):
        projected_as_average(dataclasses.replace(pp, fiber_counts=pp.fiber_counts[::-1]), iota)
    # a claimed phase degree of 0 bounds the members by degree 0; they have degree 1
    with pytest.raises(PostconditionError, match="member degree"):
        projected_as_average(dataclasses.replace(pp, degree=0), iota)


def test_average_rejects_non_section():
    B, A = FinAbGroup((4,)), FinAbGroup((2,))
    phi = PolyMap(B, FinAbGroup((4,)), tuple((y,) for y in range(4)))
    pp = project_phase(phi, Homomorphism(B, A, [[1]]))
    not_section = PolyMap(A, B, ((0,), (3,)))  # tau(3) = 1 ok, tau(0)=0 ok -> fix
    bad = PolyMap(A, B, ((1,), (0,)))  # tau(1) = 1 != 0
    with pytest.raises(ValueError):
        projected_as_average(pp, bad)
    # a genuine but non-polynomial section cannot arise: tables are checked first
    assert projected_as_average(pp, not_section)


# ---------------------------------------------------------------------------
# box norm


def test_box_norm_of_ones():
    f = GroupFunction.ones(FinAbGroup((3, 4)))
    assert abs(box_norm_4cycle(f, 1) - 1.0) < TOL


def test_box_norm_bilinear_counterexample():
    for l in (1, 2, 3):
        f = bilinear_function(l)
        assert abs(box_norm_4cycle(f, l) - 2 ** (-l / 4)) < TOL


def test_box_norm_rank_one_unimodular():
    rng = random.Random(5)
    G = FinAbGroup((4, 5))
    u1 = [cmath.exp(2j * math.pi * rng.random()) for _ in range(4)]
    u2 = [cmath.exp(2j * math.pi * rng.random()) for _ in range(5)]
    f = GroupFunction(G, [u1[x] * u2[y] for x in range(4) for y in range(5)])
    assert abs(box_norm_4cycle(f, 1) - 1.0) < TOL


def test_box_norm_needs_split():
    f = GroupFunction.ones(FinAbGroup((6,)))
    with pytest.raises(ValueError):
        box_norm_4cycle(f, 1)


# ---------------------------------------------------------------------------
# cut norm lower bounds


def test_cut_norm_ones_converges_immediately():
    f = GroupFunction.ones(FinAbGroup((2, 3)))
    res = cut_norm_lower(f, 1, restarts=0, seed=1)
    assert abs(res.value - 1.0) < TOL
    assert res.sweeps == 2  # the first sweep rises from -1 to 1, the second gains nothing


def test_cut_norm_recovers_product_function():
    rng = random.Random(13)
    G = FinAbGroup((3, 4))
    u1 = [cmath.exp(2j * math.pi * rng.random()) for _ in range(3)]
    u2 = [cmath.exp(2j * math.pi * rng.random()) for _ in range(4)]
    f = GroupFunction(G, [u1[x] * u2[y] for x in range(3) for y in range(4)])
    res = cut_norm_lower(f, 1, restarts=4, seed=13)
    assert res.value > 1.0 - 1e-9


def test_cut_norm_witness_bounded_and_consistent_with_box():
    # |<f, u1 (x) u2>| <= ||f||_box for the returned witness (Cauchy-Schwarz twice)
    f = bilinear_function(2)
    res = cut_norm_lower(f, 1, restarts=4, iters=30, seed=3)
    for w in res.witnesses.values():
        assert np.max(np.abs(w)) <= 1 + 1e-12
    # the full witness family on a 4-coordinate group has blocks of size 1;
    # compare against the 2-factor box norm on the designated split instead
    box = box_norm_4cycle(f, 2)
    split_f = GroupFunction(FinAbGroup((4, 4)), f.values)
    res2 = cut_norm_lower(split_f, 1, restarts=4, iters=30, seed=3)
    assert res2.value <= box + 1e-9


def test_cut_norm_monotone_per_sweep():
    rng = random.Random(31)
    G = FinAbGroup((3, 3))
    f = random_bounded_function(rng, G)
    r1 = cut_norm_lower(f, 1, restarts=0, iters=1, seed=5)
    r2 = cut_norm_lower(f, 1, restarts=0, iters=8, seed=5)
    assert r2.value >= r1.value - 1e-12
    assert r1.sweeps == 1 and 1 <= r2.sweeps <= 8


def test_cut_norm_invalid_d():
    f = GroupFunction.ones(FinAbGroup((2, 3)))
    with pytest.raises(ValueError):
        cut_norm_lower(f, 2)


@pytest.mark.parametrize("iters", [0, -1])
def test_cut_norm_refuses_iters_below_one(iters):
    # no sweep would run, leaving value -1.0 and no witnesses
    f = GroupFunction.ones(FinAbGroup((2, 3)))
    with pytest.raises(ValueError, match="iters"):
        cut_norm_lower(f, 1, iters=iters)


def test_cut_norm_refuses_values_whose_objective_overflows():
    # 1e308 entries overflow every restart's objective to NaN, so no witness
    # family is kept; the value -1.0 and no witnesses used to come back
    f = GroupFunction(FinAbGroup((2, 2)), [1e308 + 1e308j] * 4)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match="finite objective"):
        cut_norm_lower(f, 1)


@pytest.mark.parametrize("restarts", [-1, -3])
def test_cut_norm_refuses_negative_restarts(restarts):
    f = GroupFunction.ones(FinAbGroup((2, 3)))
    with pytest.raises(ValueError, match="restarts"):
        cut_norm_lower(f, 1, restarts=restarts)


def _cut_norm_oracle(f, d, *, restarts, iters, seed):
    """The restarts one after another: value, witnesses, the winner's sweeps, every restart's sweeps."""
    G = f.group
    n = G.ncoords
    tensor = f.values.reshape(G.orders)
    blocks = list(combinations(range(n), d))
    rng = np.random.default_rng(seed)

    def expand(u, block):
        shape = [1] * n
        for i, ax in enumerate(block):
            shape[ax] = u.shape[i]
        return u.reshape(shape)

    def objective(ws):
        t = tensor
        for blk in blocks:
            t = t * np.conj(expand(ws[blk], blk))
        return abs(complex(t.mean()))

    best_val, best_ws, best_sweeps, sweeps = -1.0, None, 0, []
    for r in range(restarts + 1):
        ws = {}
        for blk in blocks:
            shape = tuple(G.orders[i] for i in blk)
            if r == 0:
                ws[blk] = np.ones(shape, dtype=np.complex128)
            else:
                ws[blk] = np.exp(2j * np.pi * rng.random(shape))
        prev = -1.0
        sweeps.append(0)
        for _ in range(iters):
            for blk in blocks:
                t = tensor
                for other in blocks:
                    if other != blk:
                        t = t * np.conj(expand(ws[other], other))
                axes = tuple(i for i in range(n) if i not in blk)
                s = t.sum(axis=axes)
                mag = np.abs(s)
                ws[blk] = np.where(mag > 1e-15, s / np.where(mag > 1e-15, mag, 1.0), ws[blk])
            val = objective(ws)
            sweeps[-1] += 1
            if val - prev < 1e-13:
                prev = val
                break
            prev = val
        if prev > best_val:
            best_val, best_sweeps = prev, sweeps[-1]
            best_ws = {blk: ws[blk].copy() for blk in blocks}
    return best_val, best_ws, best_sweeps, sweeps


def _assert_same_cut(res, value, witnesses):
    assert res.value == value, (res.value.hex(), value.hex())
    assert res.witnesses.keys() == witnesses.keys()
    for blk, w in witnesses.items():
        assert np.array_equal(res.witnesses[blk], w), blk


def _product_function(rng, G):
    """prod_j u_j(x_j) with random unit phases u_j: the cut norm is 1."""
    factors = [np.exp(2j * np.pi * np.array([rng.random() for _ in range(m)])) for m in G.orders]
    values = np.ones(1, dtype=np.complex128)
    for u in factors:
        values = (values[:, None] * u[None, :]).reshape(-1)
    return GroupFunction(G, values)


@pytest.mark.parametrize("orders", [(2, 3), (2, 2, 2), (4, 4, 4), (2, 3, 4, 2), (3, 3, 3, 3), (2, 2, 2, 2, 2)])
def test_cut_norm_matches_the_one_by_one_oracle_exactly(orders):
    # ones and a product function converge in a sweep or two, random functions run on
    G = FinAbGroup(orders)
    rng = random.Random(sum(orders) * len(orders))
    functions = [
        GroupFunction.ones(G),
        _product_function(rng, G),
        random_bounded_function(rng, G),
        random_unimodular_function(rng, G),
    ]
    uneven = False
    n = len(orders)
    for d in range(1, n if n < 5 else 3):
        for fi, f in enumerate(functions):
            for restarts in (0, 1, 8):
                for iters in (1, 5, 25):
                    seed = 100 * fi + 10 * restarts + iters
                    value, witnesses, winner, sweeps = _cut_norm_oracle(f, d, restarts=restarts, iters=iters, seed=seed)
                    res = cut_norm_lower(f, d, restarts=restarts, iters=iters, seed=seed)
                    _assert_same_cut(res, value, witnesses)
                    assert res.sweeps == winner
                    uneven |= len(set(sweeps)) > 1
    assert uneven  # some restarts stopped while others ran on


def _half_supported_function(rng, G):
    """Unit phases where the first coordinate lies below half its order, zero elsewhere."""
    values = np.exp(2j * np.pi * np.array([rng.random() for _ in range(G.order)]))
    first = np.arange(G.order) // (G.order // G.orders[0])
    return GroupFunction(G, np.where(first < G.orders[0] // 2, values, 0))


@pytest.mark.parametrize("orders", [(4, 4, 4, 4), (2,) * 8])
def test_cut_norm_matches_the_one_by_one_oracle_above_128_entries(orders):
    # |G| = 256: numpy's pairwise sums recurse past 128 entries; the zero and
    # half-supported functions keep old witnesses where a conditional sum vanishes
    G = FinAbGroup(orders)
    rng = random.Random(len(orders))
    functions = [
        GroupFunction(G, np.zeros(G.order)),
        _half_supported_function(rng, G),
        random_bounded_function(rng, G),
        random_unimodular_function(rng, G),
    ]
    for d in (1, 2):
        for fi, f in enumerate(functions):
            for restarts in (2, 8):
                seed = 100 * fi + 10 * d + restarts
                value, witnesses, winner, _ = _cut_norm_oracle(f, d, restarts=restarts, iters=25, seed=seed)
                res = cut_norm_lower(f, d, restarts=restarts, iters=25, seed=seed)
                _assert_same_cut(res, value, witnesses)
                assert res.sweeps == winner


@pytest.mark.parametrize("block", [1, 7, 64])
def test_cut_norm_is_independent_of_the_block_size(monkeypatch, block):
    # chunks of one restart up to all nine side by side
    rng = random.Random(block)
    cases = [
        (random_bounded_function(rng, FinAbGroup(orders)), d)
        for orders, d in [((2, 3), 1), ((2, 2, 2), 1), ((2, 2, 2), 2), ((2, 2, 2, 2), 2)]
    ]
    expected = [cut_norm_lower(f, d, seed=block) for f, d in cases]
    monkeypatch.setattr(harmonics, "_BLOCK", block)
    for (f, d), res in zip(cases, expected):
        again = cut_norm_lower(f, d, seed=block)
        _assert_same_cut(again, res.value, res.witnesses)
        assert again.sweeps == res.sweeps


# ---------------------------------------------------------------------------
# norm properties (seeded suites; the acceptance suite runs larger ones)


def _random_group(rng, max_order=32):
    while True:
        k = rng.randint(1, 2)
        orders = tuple(rng.choice((2, 3, 4, 5, 8)) for _ in range(k))
        G = FinAbGroup(orders)
        if G.order <= max_order:
            return G


@pytest.mark.parametrize("seed", range(15))
def test_monotonicity(seed):
    rng = random.Random(300 + seed)
    G = _random_group(rng)
    f = random_bounded_function(rng, G)
    norms = [gowers_norm(f, order) for order in (1, 2, 3)]
    assert norms[0] <= norms[1] + TOL
    assert norms[1] <= norms[2] + TOL


@pytest.mark.parametrize("seed", range(15))
def test_u2_fourier_identity(seed):
    rng = random.Random(400 + seed)
    G = _random_group(rng)
    f = random_bounded_function(rng, G)
    u2 = gowers_norm(f, 2)
    # oracle: direct character sums, no FFT
    total = 0.0
    for t in G.elements():
        chi = GroupFunction.character(G, t.coords)
        total += abs(correlation(f, chi)) ** 4
    assert abs(u2**4 - total) < 1e-9
    # and the library FFT agrees with the direct sums
    fhat = fourier_coefficients(f)
    assert abs(float(np.sum(np.abs(fhat) ** 4)) - total) < 1e-9


@pytest.mark.parametrize("seed", range(10))
def test_modulation_invariance(seed):
    rng = random.Random(500 + seed)
    G = _random_group(rng, max_order=16)
    f = random_bounded_function(rng, G)
    k = rng.randint(1, 2)
    P = random_phase_polynomial(rng, G, k)
    mod = f.multiply(phase(P))
    assert abs(gowers_norm(mod, k + 1) - gowers_norm(f, k + 1)) < TOL


@pytest.mark.parametrize("seed", range(10))
def test_translation_invariance(seed):
    rng = random.Random(600 + seed)
    G = _random_group(rng, max_order=16)
    f = random_bounded_function(rng, G)
    a = G.element(tuple(rng.randrange(m) for m in G.orders))
    g = f.translate(a)
    for order in (1, 2, 3):
        assert abs(gowers_norm(f, order) - gowers_norm(g, order)) < TOL
    if G.ncoords >= 2:
        assert abs(box_norm_4cycle(f, 1) - box_norm_4cycle(g, 1)) < TOL


@pytest.mark.parametrize("seed", range(8))
def test_projected_phase_dual_bound_random(seed):
    rng = random.Random(700 + seed)
    tau = random_surjection(rng, primes=(2, 3), max_exponent=2, max_order_b=64)
    if tau.codomain.order > 32:
        return
    k = rng.randint(1, 2)
    phi = random_phase_polynomial(rng, tau.domain, k)
    pp = project_phase(phi, tau)
    f = random_bounded_function(rng, tau.codomain)
    rep = obstruction_check(f, pp)
    assert rep.correlation <= rep.norm + TOL
