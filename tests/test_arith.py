"""Multiplicative functions and canonicalization of rational pairs."""

import math
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from theta_tails import arith
from theta_tails import (
    InvalidArgumentError,
    dedekind_psi,
    euler_phi,
    factorize,
    jordan_j2,
    normalize_pair,
    split_two_power,
)


@pytest.mark.parametrize("n", range(1, 121))
def test_totients_match_brute_force(n):
    assert euler_phi(n) == oracles.phi_brute(n)
    assert dedekind_psi(n) == oracles.psi_brute(n)


@pytest.mark.parametrize("n", range(1, 41))
def test_jordan_counts_coprime_torus_pairs(n):
    assert jordan_j2(n) == oracles.j2_brute(n)


@given(st.integers(min_value=1, max_value=5000))
def test_jordan_splits_as_phi_times_psi(n):
    assert jordan_j2(n) == euler_phi(n) * dedekind_psi(n)


@given(st.integers(min_value=2, max_value=10**7))
def test_factorize_roundtrip_with_prime_factors(n):
    fac = factorize(n)
    prod = 1
    for p, e in fac.items():
        assert e >= 1
        assert all(p % d for d in range(2, math.isqrt(p) + 1))
        prod *= p**e
    assert prod == n


def test_factorize_across_prime_table_growth(monkeypatch):
    monkeypatch.setattr(arith, "_PRIME_TABLE", (1, []))
    for n, limit in ((2000, 45), (999983 * 999979, 999981), (12, 999981)):
        fac = factorize(n)
        assert math.prod(p**e for p, e in fac.items()) == n
        assert all(p >= 2 and all(p % d for d in range(2, math.isqrt(p) + 1)) for p in fac)
        # the table reaches isqrt(n) + 1 and never shrinks
        assert arith._PRIME_TABLE[0] == limit
    assert fac == {2: 2, 3: 1}
    assert factorize(999983 * 999979) == {999979: 1, 999983: 1}


def test_factorize_from_many_threads_while_the_table_grows(monkeypatch):
    # worker threads reach factorize through orbit_contains: a call must see
    # primes up to its own bound while other threads replace the table. A
    # product p * Q of primes with p < Q < p^2 needs the primes up to p and
    # stops there; 3 * 2^39 makes the table grow to 10^6.
    ns = [2000, 1009 * 999983, 3001 * 999979, 3 * 2**39, 50021 * 999961, 12, 997 * 991, 2003 * 999953]
    want = [factorize(n) for n in ns]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(2):
            monkeypatch.setattr(arith, "_PRIME_TABLE", (1, []))
            with ThreadPoolExecutor(max_workers=8) as pool:
                jobs = [
                    pool.submit(lambda k: [factorize(n) for n in ns[k:] + ns[:k]], k)
                    for k in range(8)
                ]
                for k, job in enumerate(jobs):
                    assert job.result(timeout=60) == want[k:] + want[:k]
    finally:
        sys.setswitchinterval(interval)


def test_factorize_rejects_nonpositive():
    with pytest.raises(InvalidArgumentError):
        factorize(0)


@given(st.integers(min_value=1, max_value=10**9))
def test_split_two_power(n):
    ell, m = split_two_power(n)
    assert m % 2 == 1
    assert 2**ell * m == n


# ---------------------------------------------------------------------------
# canonical pairs

def test_normalization_worked_examples():
    cases = {
        (Fraction(0), Fraction(0)): (0, 0, 1, "H"),
        (Fraction(1, 2), Fraction(0)): (1, 0, 2, "H"),
        (Fraction(1, 2), Fraction(1, 2)): (1, 1, 2, "C"),
        (Fraction(1, 6), Fraction(1, 6)): (1, 1, 6, "C"),
        (Fraction(1, 6), Fraction(0)): (1, 0, 6, "H"),
        (Fraction(3, 4), Fraction(1, 3)): (9, 4, 12, "H"),
        (Fraction(1, 8), Fraction(1, 8)): (1, 1, 8, "H"),
        (Fraction(-1, 5), Fraction(7, 5)): (4, 2, 5, "H"),
    }
    for (alpha, beta), expected in cases.items():
        p = normalize_pair(alpha, beta)
        assert (p.a, p.b, p.q, p.kind) == expected


rationals = st.fractions(min_value=-4, max_value=4, max_denominator=36)


@given(rationals, rationals)
def test_normalization_is_canonical_and_idempotent(alpha, beta):
    p = normalize_pair(alpha, beta)
    assert 0 <= p.a < p.q and 0 <= p.b < p.q
    assert math.gcd(math.gcd(p.a, p.b), p.q) == 1
    # fractional parts survive
    assert (p.alpha - alpha) % 1 == 0
    assert (p.beta - beta) % 1 == 0
    assert normalize_pair(p.alpha, p.beta) == p
    assert normalize_pair(p, beta) is p  # a canonical pair passes through
    # the two-power split is stored consistently
    assert 2**p.ell * p.m == p.q and p.m % 2 == 1
    if p.kind == "C":
        assert p.ell == 1 and p.a % 2 == 1 and p.b % 2 == 1
    else:
        assert p.ell != 1 or p.a % 2 == 0 or p.b % 2 == 0


def test_diagonal_is_the_parity_rule_it_replaced():
    # every canonical pair with q <= 60, against the expressions that
    # normalize_pair, the orbit code and the sampler each wrote out before
    for q in range(1, 61):
        for a in range(q):
            for b in range(q):
                if math.gcd(a, b, q) != 1:
                    continue
                p = normalize_pair(Fraction(a, q), Fraction(b, q))
                assert (p.a, p.b, p.q) == (a, b, q)
                assert p.diagonal is (q % 2 == 0 and a % 2 == 1 and b % 2 == 1)
                assert p.diagonal == bool(p.ell and a & b & 1)
                assert p.kind == ("C" if p.ell == 1 and a % 2 == 1 and b % 2 == 1 else "H")


@given(rationals, rationals)
def test_sign_flips_preserve_denominator_and_kind(alpha, beta):
    base = normalize_pair(alpha, beta)
    for sa in (1, -1):
        for sb in (1, -1):
            p = normalize_pair(sa * alpha, sb * beta)
            assert p.q == base.q
            assert p.kind == base.kind


def test_floats_are_rejected():
    with pytest.raises(InvalidArgumentError):
        normalize_pair(0.5, 0)
    with pytest.raises(InvalidArgumentError):
        normalize_pair(Fraction(1, 2), 0.25)


def test_tuples_are_rejected():
    # a pair's entries are ints or Fractions; (num, den) is not one of them
    with pytest.raises(InvalidArgumentError, match="cannot parse"):
        normalize_pair((1, 3), 0)
