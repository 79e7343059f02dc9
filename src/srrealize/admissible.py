"""Classification of even degree multisets that can carry unstable Steenrod
algebra structure, plus the obstruction checks used to reject the others.

The admissible families (up to any number of degree-2 entries) are:

  Torus        {}                                      product of CP^inf factors
  SUType{n}    {4, 6, ..., 2n+2}    n >= 1             special unitary chain
  SpType{n}    {4, 8, ..., 4n}      n >= 1             symplectic chain
  Exceptional  {4, 8, ..., 2^(n+1)-4} + {2^n}  n >= 3  one doubled power of two

{4} belongs to both chain families; it is reported as SpType{1}.

Everything else is rejected with a reason:

  * MultipleDegree4: more than one generator of degree 4,
  * TableMiss: the multiset is not one table row of the classification of
    degree sequences admitting unstable structure at all large primes (and so
    cannot be an integral cohomology ring), or it is the table row
    {4, 8, ..., 4(n-1), 2n} with n odd >= 5, excluded by a table-driven rule,
  * ThomasRank: a rank inequality forced by squaring operations fails
    (for d = 2^i * n with i >= 1 and n odd >= 3, the count of generators in
    degree 2^i * (n-1) must be at least the count in degree d),
  * AdemP3: the multiset {4, 16} passes the rank test but is killed mod 3,
    where P^8 = -P^1 P^7 forces a generator in a degree 12 mod 16.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from .complexes import DegreeMultiset


@dataclass(frozen=True)
class ThomasRank:
    target_degree: int
    i: int
    source_degree: int
    dim_source: int
    dim_target: int


@dataclass(frozen=True)
class AdemP3:
    pass


@dataclass(frozen=True)
class TableMiss:
    pass


@dataclass(frozen=True)
class MultipleDegree4:
    pass


ObstructionReason = ThomasRank | AdemP3 | TableMiss | MultipleDegree4


@dataclass(frozen=True)
class Torus:
    k2: int


@dataclass(frozen=True)
class SUType:
    n: int
    k2: int


@dataclass(frozen=True)
class SpType:
    n: int
    k2: int


@dataclass(frozen=True)
class Exceptional:
    n: int
    k2: int


@dataclass(frozen=True)
class Inadmissible:
    reason: ObstructionReason


AdmissibleClass = Torus | SUType | SpType | Exceptional | Inadmissible


def su_degrees(n: int) -> DegreeMultiset:
    """n consecutive even degrees starting at 4."""
    return tuple(range(4, 2 * n + 3, 2))


def sp_degrees(n: int) -> DegreeMultiset:
    return tuple(range(4, 4 * n + 1, 4))


def _mixed_row(n: int) -> DegreeMultiset:
    """The table row {4, 8, ..., 4(n-1)} + {2n}, n entries."""
    return tuple(sorted((*range(4, 4 * n - 3, 4), 2 * n)))


def exceptional_degrees(n: int) -> DegreeMultiset:
    """The mixed row at 2^(n-1) entries, which holds 2^n twice."""
    if n < 3:
        raise ValueError("exceptional family needs n >= 3")
    return _mixed_row(2 ** (n - 1))


def class_degrees(cls: AdmissibleClass) -> DegreeMultiset:
    """The degree multiset a class stands for (including its 2s)."""
    if isinstance(cls, Torus):
        return (2,) * cls.k2
    if isinstance(cls, SUType):
        return tuple(sorted((2,) * cls.k2 + su_degrees(cls.n)))
    if isinstance(cls, SpType):
        return tuple(sorted((2,) * cls.k2 + sp_degrees(cls.n)))
    if isinstance(cls, Exceptional):
        return tuple(sorted((2,) * cls.k2 + exceptional_degrees(cls.n)))
    raise ValueError("inadmissible classes have no degree multiset")


def _normalize(ms: Sequence[int]) -> DegreeMultiset:
    out = tuple(sorted(ms))
    for d in out:
        if d <= 0 or d % 2 != 0:
            raise ValueError(f"degree {d} must be a positive even integer")
    return out


def thomas_rank_check(ms: Sequence[int]) -> ThomasRank | None:
    """First failure of the squaring-operation rank inequality, or None.

    Each degree d factors uniquely as 2^i * n with n odd, so there is at most
    one inequality per degree; degrees are scanned in ascending order.
    """
    counts = Counter(_normalize(ms))
    for d in sorted(counts):
        i = (d & -d).bit_length() - 1
        n = d >> i
        if i >= 1 and n >= 3:
            source = d - (1 << i)  # 2^i * (n - 1)
            if counts.get(source, 0) < counts[d]:
                return ThomasRank(d, i, source, counts.get(source, 0), counts[d])
    return None


def adem_p3_check(ms: Sequence[int]) -> AdemP3 | None:
    rest = tuple(d for d in _normalize(ms) if d != 2)
    return AdemP3() if rest == (4, 16) else None


_FIXED_TABLE_ROWS: tuple[DegreeMultiset, ...] = (
    (4, 12),
    (4, 12, 16, 24),
    (4, 10, 12, 16, 18, 24),
    (4, 12, 16, 20, 24, 28, 36),
    (4, 16, 24, 28, 36, 40, 48, 60),
    (4, 16),
    (4, 24),
    (4, 48),
)


def aguade_table_member(ms: Sequence[int]) -> bool:
    """Whether the degrees above 2 form one row of the classification table
    (or none at all: degree-2 entries are units and are ignored).

    A product of admissible spaces realizes the disjoint union of their
    rows, but every row holds exactly one 4.  classify rejects a multiset
    with two 4s before it reads the table, so a union it could meet is
    empty or a single row, and the multiset's length fixes which row: the
    chains su_degrees(n) and sp_degrees(n), {4, 8, ..., 4(n-1)} + {2n} for
    n >= 4, or a fixed row.  A multiset with two or more 4s is no row."""
    rest = tuple(d for d in _normalize(ms) if d != 2)
    n = len(rest)
    mixed = _mixed_row(n) if n >= 4 else None
    return (n == 0 or rest in (su_degrees(n), sp_degrees(n), mixed)
            or rest in _FIXED_TABLE_ROWS)


def classify(ms: Sequence[int]) -> AdmissibleClass:
    """Classify a degree multiset into one of the admissible families, or
    return Inadmissible with the first applicable rejection reason."""
    norm = _normalize(ms)
    k2 = sum(1 for d in norm if d == 2)
    rest = tuple(d for d in norm if d != 2)
    if not rest:
        return Torus(k2)
    n = len(rest)
    if rest == sp_degrees(n):
        return SpType(n, k2)  # {4} lands here, not in the unitary chain
    if rest == su_degrees(n):
        return SUType(n, k2)
    if n >= 4 and n & (n - 1) == 0 and rest == _mixed_row(n):
        return Exceptional(n.bit_length(), k2)
    if rest.count(4) >= 2:
        return Inadmissible(MultipleDegree4())
    if not aguade_table_member(rest):
        return Inadmissible(TableMiss())
    violation = thomas_rank_check(rest)
    if violation is not None:
        return Inadmissible(violation)
    if adem_p3_check(rest) is not None:
        return Inadmissible(AdemP3())
    # in the table, passes both computed checks: the remaining row is
    # {4, 8, ..., 4(n-1), 2n} with n odd >= 5, excluded by the table rule
    return Inadmissible(TableMiss())


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# the least strong pseudoprime to every base in _MR_BASES (Sorenson and
# Webster): 399165290221 * 798330580441
_MR_BOUND = 318665857834031151167461


def _is_prime(n: int) -> bool:
    # Miller-Rabin on _MR_BASES, deterministic only below _MR_BOUND
    if n >= _MR_BOUND:
        raise ValueError(f"primality of {n} is not decided: the test is exact "
                         f"only below {_MR_BOUND}")
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _crt(pairs: Sequence[tuple[int, int]]) -> tuple[int, int]:
    # pairs of (modulus, residue) with pairwise coprime moduli
    r, m = 0, 1
    for mod, res in pairs:
        t = ((res - r) * pow(m, -1, mod)) % mod
        r += m * t
        m *= mod
    return r % m, m


def dirichlet_prime(extra_primes: Sequence[int], lower_bound: int) -> int:
    """Smallest prime p > lower_bound with p = 7 mod 16, 2 mod 3, 3 mod 5,
    3 mod 7, and 2 mod q for every extra prime q (each q > 7, distinct).

    Existence is Dirichlet's theorem on primes in arithmetic progressions;
    these congruences make p a non-square, non-cube (and so on) unit in the
    relevant residue rings.
    """
    extras = list(extra_primes)
    if len(set(extras)) != len(extras):
        raise ValueError("extra primes must be pairwise distinct")
    for q in extras:
        if q <= 7 or not _is_prime(q):
            raise ValueError(f"extra modulus {q} must be a prime > 7")
    pairs = [(16, 7), (3, 2), (5, 3), (7, 3)] + [(q, 2) for q in extras]
    residue, modulus = _crt(pairs)
    candidate = residue if residue > 0 else residue + modulus
    if candidate <= lower_bound:
        candidate += ((lower_bound - candidate) // modulus + 1) * modulus
    while not _is_prime(candidate):
        candidate += modulus
    return candidate
