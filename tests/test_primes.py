import pytest
import sympy

from eqlines.primes import is_prime, primes_up_to

# Carmichael numbers, the first twelve and some larger ones
CARMICHAEL = [561, 1105, 1729, 2465, 2821, 6601, 8911, 10585, 15841, 29341,
              41041, 46657, 825265, 321197185, 5394826801, 232250619601,
              9746347772161, 1436697831295441, 60977817398996785]

# the smallest strong pseudoprimes to the first 1, 4, 9, 12 and 13 prime
# bases; the last is the bound below which the 13 bases 2, ..., 41 are
# proven, and from which the strong Baillie-PSW test takes over
STRONG_PSEUDOPRIMES = [2047, 3215031751, 3825123056546413051,
                       318665857834031151167461, 3317044064679887385961981]

MERSENNE_PRIMES = [2**61 - 1, 2**89 - 1, 2**127 - 1]


def test_is_prime_below_10_5():
    assert [n for n in range(-3, 10**5) if is_prime(n) != sympy.isprime(n)] == []


@pytest.mark.parametrize("n", CARMICHAEL + STRONG_PSEUDOPRIMES + MERSENNE_PRIMES)
def test_is_prime_on_hard_cases(n):
    assert is_prime(n) == sympy.isprime(n)


def test_is_prime_around_the_miller_rabin_bound():
    bound = STRONG_PSEUDOPRIMES[-1]
    for n in range(bound - 300, bound + 300):
        assert is_prime(n) == sympy.isprime(n), n
    for start in (bound, 2**89, 2**127, 10**40):
        p = sympy.nextprime(start)
        q = sympy.nextprime(p)
        assert is_prime(p) and is_prime(q) and not is_prime(p * q)


def test_primes_up_to():
    for bound in (-1, 0, 1, 2, 3, 4, 100, 10007, 10**5):
        assert primes_up_to(bound) == list(sympy.primerange(bound + 1))
