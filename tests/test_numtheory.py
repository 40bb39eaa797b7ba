import pytest

from nearfactor.numtheory import (
    Residue,
    crt_combine,
    gcd,
    half_mod,
    mod_inverse,
    totient,
)


def test_gcd_examples():
    assert gcd(3, 9) == 3
    assert gcd(0, 7) == 7
    assert gcd(4, 15) == 1
    assert gcd(0, 0) == 0
    assert gcd(-4, 6) == 2


def test_totient_examples():
    assert totient(1) == 1
    assert totient(5) == 4
    assert totient(15) == 8
    assert totient(99) == 60


def test_totient_rejects_nonpositive():
    with pytest.raises(ValueError):
        totient(0)
    with pytest.raises(ValueError):
        totient(-3)


def test_totient_multiplicative_for_coprime_arguments():
    phi = [0] + [totient(n) for n in range(1, 101)]
    for s in range(1, 101):
        for t in range(1, 101):
            if s * t <= 100 and gcd(s, t) == 1:
                assert phi[s * t] == phi[s] * phi[t]


@pytest.mark.parametrize("r, n, x", [(2, 9, 5), (1, 7, 1), (3, 10, 7)])
def test_mod_inverse_values(r, n, x):
    result = mod_inverse(r, n)
    assert result == Residue(x, n)
    assert (r * result.value) % n == 1


def test_mod_inverse_requires_coprimality():
    with pytest.raises(ValueError, match="no inverse"):
        mod_inverse(2, 6)
    with pytest.raises(ValueError, match="no inverse"):
        mod_inverse(0, 5)


def test_mod_inverse_roundtrip_small_moduli():
    for n in range(2, 51):
        for r in range(1, n):
            if gcd(r, n) == 1:
                assert (r * mod_inverse(r, n).value) % n == 1


def test_half_mod_examples():
    assert half_mod(0, 5).value == 0
    assert half_mod(3, 9).value == 6
    assert half_mod(1, 5).value == 3


def test_half_mod_rejects_even_modulus():
    with pytest.raises(ValueError):
        half_mod(1, 6)
    with pytest.raises(ValueError):
        half_mod(0, 1)


def test_half_mod_doubles_back():
    for n in range(3, 202, 2):
        for k in range(n):
            assert (2 * half_mod(k, n).value) % n == k


def test_crt_combine_examples():
    assert crt_combine(1, 2, 3, 5) == Residue(7, 15)
    assert crt_combine(0, 0, 3, 5) == Residue(0, 15)


def test_crt_combine_rejects_common_factor():
    with pytest.raises(ValueError, match="moduli not coprime"):
        crt_combine(2, 1, 3, 6)


def test_crt_bijection_exhaustive():
    # every residue pair is hit exactly once, for all coprime moduli up to 25
    for s in range(1, 26):
        for t in range(1, 26):
            if gcd(s, t) != 1:
                continue
            images = {
                (p % s, p % t): p for p in range(s * t)
            }
            assert len(images) == s * t
            for k in range(s):
                for l in range(t):
                    p = crt_combine(k, l, s, t)
                    assert p.modulus == s * t
                    assert images[(k, l)] == p.value


def test_residue_normalization_enforced():
    with pytest.raises(ValueError):
        Residue(5, 5)
    with pytest.raises(ValueError):
        Residue(-1, 5)
    with pytest.raises(ValueError):
        Residue(0, 0)
    assert int(Residue(3, 7)) == 3


def test_moduli_below_the_domain_are_refused():
    with pytest.raises(ValueError, match="modulus must be >= 2, got 1"):
        mod_inverse(0, 1)
    for s, t in ((0, 5), (3, -1)):
        with pytest.raises(ValueError, match=rf"moduli must be >= 1, got \({s}, {t}\)"):
            crt_combine(1, 1, s, t)


def test_a_residue_serves_as_an_index():
    assert "abcdefg"[Residue(3, 7)] == "d"
