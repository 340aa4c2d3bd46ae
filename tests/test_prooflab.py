import random
from fractions import Fraction
from itertools import permutations

import pytest

from edslab import ntkernel, prooflab
from edslab.ntkernel import NonResidueError, Poly, sieve_primes
from edslab.prooflab import (
    AdmissibilityError,
    construct_ell,
    count_admissible_residues,
    det_beta_identity,
    expand_q,
    fixed_point_collision,
    q_lemma_prediction,
)


def test_expand_q_constant():
    result = expand_q(Poly(5), 2)
    assert result.expanded == Poly(5)
    assert q_lemma_prediction(Poly(5), 2) == (0, 5)


def test_expand_q_linear_fixture():
    result = expand_q(Poly(0, 1), 1)  # P = X, alpha = 1
    assert result.degree == 5
    assert result.leading == -4
    assert q_lemma_prediction(Poly(0, 1), 1) == (5, Fraction(-4))


def test_expand_q_random_property():
    rng = random.Random(47)
    for _ in range(25):
        d = rng.randint(1, 4)
        coeffs = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(d)]
        coeffs.append(Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3)))
        poly = Poly(*coeffs)
        alpha = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 4))
        result = expand_q(poly, alpha)
        degree, leading = q_lemma_prediction(poly, alpha)
        assert result.degree == degree
        assert result.leading == leading


def test_det_beta_trivial_case():
    result = det_beta_identity([3], 7)
    assert result.determinant == 2 == result.product
    assert result.sign == 1 and result.consistent


def test_det_beta_exhaustive_small_fields():
    for q in (3, 5, 7, 11):
        admissible = [b for b in range(q) if b > 1]
        for t in (1, 2, 3):
            for tup in permutations(admissible, min(t, len(admissible))):
                result = det_beta_identity(list(tup), q)
                assert result.consistent, (q, tup)


def test_det_beta_degenerate_cases():
    # repeated beta
    result = det_beta_identity([2, 2], 7)
    assert result.determinant == 0 and result.product == 0 and result.consistent
    # unit beta
    result = det_beta_identity([1, 3], 7)
    assert result.determinant == 0 and result.product == 0 and result.consistent


def test_det_beta_fifty_betas_eliminate_modulo_q(monkeypatch):
    # the determinant is taken over F_q: each value the elimination normalizes,
    # each pivot it inverts, each entry it returns and the determinant is an
    # int in [0, q); over Q they would be Fractions
    q, seen = 1_000_003, []

    def in_f_q(x):
        assert type(x) is int and 0 <= x < q, x
        seen.append(x)
        return x

    def over_f_q(rows, inverse, normal):
        mat, pivots, det = ntkernel.echelon(rows, lambda x: inverse(in_f_q(x)), lambda x: in_f_q(normal(x)))
        assert all(in_f_q(x) is x for row in mat for x in row)
        return mat, pivots, in_f_q(det)

    monkeypatch.setattr(prooflab, "echelon", over_f_q)
    result = det_beta_identity(list(range(2, 52)), q)
    assert (result.determinant, result.product, result.sign, result.consistent) == (256200, 743803, -1, True)
    assert len(seen) > 50 * 50


def test_count_admissible_t0():
    assert count_admissible_residues(11, 0).count == 11


def test_count_admissible_r11_exhaustive():
    # QRs mod 11 are {1,3,4,5,9}: n^2+1 lands there for n in {0,2,5,6,9}
    report = count_admissible_residues(11, 1, 1)
    assert report.count == 5
    assert report.deviation == abs(2 * 5 - 11)


def test_count_admissible_matches_direct_scan():
    rng = random.Random(53)
    for _ in range(20):
        r = rng.choice([p for p in sieve_primes(200) if p > 5])
        t = rng.randint(1, 3)
        c = rng.randint(1, r - 1)
        squares = {i * i % r for i in range(1, r)}
        direct = sum(
            1
            for n in range(r)
            if all((n * n + j * c) % r in squares for j in range(1, t + 1))
        )
        assert count_admissible_residues(r, t, c).count == direct


def test_count_admissible_validation():
    with pytest.raises(ValueError):
        count_admissible_residues(9, 1)
    with pytest.raises(ValueError):
        count_admissible_residues(7, 1, 14)
    with pytest.raises(ValueError):
        count_admissible_residues(3, 3)


def test_construct_ell_hand_checkable():
    ell = construct_ell(7, 1, 1, 3, 1)
    assert ell == 1
    assert (2 * ell * 1 + 1 * ell**2) % 7 == 3


def test_construct_ell_lifted_consistency():
    rng = random.Random(59)
    built = 0
    while built < 40:
        r = rng.choice([p for p in sieve_primes(100) if p > 3])
        e = rng.randint(1, 3)
        n0 = rng.randint(0, r - 1)
        c = rng.randint(1, r - 1)
        j = rng.randint(1, 5)
        disc = n0 * n0 + j * c
        if disc % r == 0:
            continue
        try:
            ell = construct_ell(r, e, n0, j, c)
        except NonResidueError:
            continue
        modulus = r**e
        assert 0 <= ell < modulus
        assert (2 * ell * n0 + c * ell**2 - j) % modulus == 0
        base = construct_ell(r, 1, n0, j, c)
        assert ell % r == base
        built += 1


@pytest.mark.parametrize("r", [0, 1, 2, 4, -5])
def test_construct_ell_refuses_a_modulus_that_is_not_an_odd_prime(r):
    # r = 0 raised ZeroDivisionError from c % r, before r was checked
    with pytest.raises(ValueError, match=f"^modulus {r} is not an odd prime$"):
        construct_ell(r, 1, 1, 1, 1)


def test_construct_ell_nonresidue_error():
    # disc = 1 + 1*2 = 3: non-residue mod 5
    with pytest.raises(NonResidueError):
        construct_ell(5, 1, 1, 2, 1)


def test_fixed_point_uniform_matrix():
    a = [[Fraction(1, 3)] * 3 for _ in range(3)]
    report = fixed_point_collision(a)
    assert report.eigenspace_dim == 1
    assert report.has_collision
    assert (0, 1) in report.colliding_pairs and (1, 2) in report.colliding_pairs


def test_fixed_point_block_diagonal():
    third = Fraction(1, 3)
    zero = Fraction(0)
    block = [
        [third, third, third, zero, zero, zero],
        [third, third, third, zero, zero, zero],
        [third, third, third, zero, zero, zero],
        [zero, zero, zero, third, third, third],
        [zero, zero, zero, third, third, third],
        [zero, zero, zero, third, third, third],
    ]
    report = fixed_point_collision(block)
    assert report.eigenspace_dim == 2
    assert report.has_collision
    assert (0, 1) in report.colliding_pairs
    assert (3, 4) in report.colliding_pairs
    # cross-block coordinates are free to differ
    assert (0, 3) not in report.colliding_pairs


def test_fixed_point_admissibility_errors():
    with pytest.raises(AdmissibilityError):
        fixed_point_collision([[Fraction(1, 2), Fraction(1, 4)], [Fraction(0), Fraction(1)]])
    with pytest.raises(AdmissibilityError) as exc:
        fixed_point_collision(
            [
                [Fraction(0), Fraction(1, 2), Fraction(1, 2)],  # diagonal excluded: fine
                [Fraction(0), Fraction(1, 2), Fraction(1, 2)],  # diag in a 2-support
                [Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)],
            ]
        )
    assert exc.value.row == 1


def _random_admissible(rng, n):
    rows = []
    for i in range(n):
        size = rng.choice([2, min(3, n), min(4, n)])
        if size >= 3:
            support = rng.sample(range(n), size)
        else:
            support = rng.sample([j for j in range(n) if j != i], size)
        weights = [rng.randint(1, 5) for _ in support]
        total = sum(weights)
        row = [Fraction(0)] * n
        for j, w in zip(support, weights):
            row[j] += Fraction(w, total)
        # a sampled support containing i with size < 3 would be inadmissible
        eff = [j for j, x in enumerate(row) if x != 0]
        if i in eff and len(eff) < 3:
            row = [Fraction(0)] * n
            picks = rng.sample([j for j in range(n) if j != i], 2)
            row[picks[0]] = Fraction(1, 2)
            row[picks[1]] = Fraction(1, 2)
        rows.append(row)
    return rows


def test_fixed_point_random_property():
    rng = random.Random(61)
    for _ in range(20):
        n = rng.randint(3, 6)
        report = fixed_point_collision(_random_admissible(rng, n))
        assert report.has_collision, report
