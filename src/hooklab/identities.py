"""Partition-indexed generating functions and standalone finite identities.

Everything here returns exact objects: series in x whose coefficients are
polynomials in the coefficient variables (a RatFunc only where a sum keeps a
denominator that does not divide out), or single rational numbers for the
finite identities.  Partition sums always iterate in the reverse-lexicographic
enumeration order so that any coefficient can be traced back to the
partitions that produced it.

Right-hand sides are built from their definitions: the Lambert-type sums
sum_k c_k x^k / (1 - r x^k) as divisor sums (_lambert_rhs), the
Rogers-Ramanujan-type sums sum_k c_k x^(d_k) / D_k term by term
(_sparse_sum), most with denominators from the one product (c x; x)_k
(_qpoch), and q-counts over partitions in one pass (_q_count).
"""

from __future__ import annotations

import functools
import math
import operator
from collections import Counter
from fractions import Fraction
from itertools import chain
from typing import Callable, Sequence

from .errors import NotSquare
from .multipoly import VARIABLES, MultiPoly, ONE, Packing, RatFunc, ZERO
from .partitions import Partition, hook_part_census, partition_list
from .series import TruncatedSeries, eta_product, gaussian_binomial, geometric


# ----- partition-indexed series -------------------------------------------------


def hook_product_sum(n: int, f: Callable[[int], object]) -> MultiPoly | RatFunc:
    """sum over lambda |- n of the product of f(h_u) over the cells u of lambda.

    f is called once per hook length 1..n and returns a MultiPoly or
    RatFunc.  Partitions are grouped by their sorted hook lengths, which
    index the table of f's values, so lambda and its conjugate share a
    group and no cell statistics are built."""
    return _multiset_product_sum(
        _hook_multisets(n, Partition.hook_lengths), [ONE, *map(f, range(1, n + 1))]
    )


def _multiset_product_sum(groups: dict, objects: Sequence) -> MultiPoly | RatFunc:
    """sum over the multisets of scale * prod of objects[i] over the multiset.

    groups maps each multiset, a sorted tuple of indices into objects (each
    a MultiPoly or RatFunc), to its summed int or Fraction scale.  Multisets
    whose scales sum to 0 are skipped.  The sum runs in packed integers
    (multipoly.Packing): each object is a rational content times P/f, where
    P and f are its numerator and denominator over their contents, and P
    and f are packed.  A multiset's scale and contents make one integer
    weight over L, the lcm of the multisets' denominators, built from int
    products with no Fraction per multiset.  Each live multiset's product of
    images is one math.prod over the table of images, as in the linear
    kernel.  Products with equal denominators are added first, and
    _over_common_denominator brings the classes over prod f^(largest
    multiplicity), taking the factors f in the order of the fewest
    multiplicities, then the largest degree, then first appearance, so the
    order in which the objects come matters to the fold's cost only among
    factors tied on both.  The total is read back
    once over L, and only the final quotient is reduced: the result is a
    MultiPoly when the denominators divide out, else a RatFunc.
    """
    nums, den_of, dens, c_num, c_den = [], [], {}, [], []  # per object; den -> index
    for w in objects:
        if isinstance(w, MultiPoly):
            num, d, c = w, None, w.content()
        else:
            num, d = w.num, dens.setdefault(w.den, len(dens))
            c = w.num.content() / w.den.content()
        nums.append(num)
        den_of.append(d)
        c_num.append(c.numerator)
        c_den.append(c.denominator)
    live = [key for key, scale in groups.items() if scale]
    raw = {key: tuple(den_of[i] for i in key if den_of[i] is not None) for key in live}
    den = Counter()  # denominator index -> its largest multiplicity
    for ds in set(raw.values()):
        den |= Counter(ds)
    by_index = list(dens)
    order = sorted(den, key=lambda f: (
        den[f], -sum(by_index[f].degree(VARIABLES[v]) for v in by_index[f].used_vars()), f
    ))
    rank = {f: r for r, f in enumerate(order)}
    class_of = {key: tuple(sorted(map(rank.__getitem__, ds))) for key, ds in raw.items()}
    polys, mult = [by_index[f] for f in order], [den[f] for f in order]

    # Each weight's numerator and denominator, not reduced, then over L.
    top = {key: groups[key].numerator * math.prod(map(c_num.__getitem__, key)) for key in live}
    bottom = {key: groups[key].denominator * math.prod(map(c_den.__getitem__, key)) for key in live}
    common = math.lcm(*bottom.values())
    weights = {key: top[key] * (common // bottom[key]) for key in live}

    # The total's coefficients are bounded by its l1 norm, and its degree in
    # each variable by the largest multiset's plus the common denominator's.
    norms = list(map(Packing.norm, nums))
    bound = math.prod(Packing.norm(f) ** m for f, m in zip(polys, mult)) * sum(
        abs(weights[key]) * math.prod(map(norms.__getitem__, key)) for key in live
    )
    degrees = {}
    for v in sorted({v for p in chain(nums, polys) for v in p.used_vars()}):
        name = VARIABLES[v]
        deg = [max(p.degree(name), 0) for p in nums]
        degrees[name] = max((sum(map(deg.__getitem__, key)) for key in live), default=0) + sum(
            m * f.degree(name) for f, m in zip(polys, mult)
        )
    layout = Packing(degrees, bound)

    images = [layout.image(p) for p in nums]
    classes = {}  # sorted factor positions -> summed weighted products
    for key in live:
        ds = class_of[key]
        classes[ds] = classes.get(ds, 0) + weights[key] * math.prod(map(images.__getitem__, key))
    total = _over_common_denominator(classes, [layout.image(f) for f in polys], mult, 0)
    return layout.read(total, common) / math.prod(
        (f.primitive() ** m for f, m in zip(polys, mult)), start=ONE
    )


def _over_common_denominator(classes: dict, polys: list, mult: list, d: int) -> int:
    """sum of N_c * prod over f >= d of polys[f]^(mult[f] - m_c(f)) over the
    classes c (sorted tuples of positions in polys, m_c(f) the count of f
    in c, N_c the summed numerator), by Horner's rule in each factor in turn;
    the numerators and factors are packed integers.

    The classes are grouped by their multiplicity j of factor d, and
    acc = acc * polys[d] + (the sum for group j over the later factors) for
    j = 0..mult[d], so group j is multiplied by polys[d] exactly
    mult[d] - j times, one small factor at a time.  Past the last factor the
    classes left agree on every multiplicity, so there is at most one.
    """
    if d == len(polys):
        return sum(classes.values())
    by_j = {}
    for ds, num in classes.items():
        by_j.setdefault(ds.count(d), {})[ds] = num
    f, acc = polys[d], 0
    for j in range(mult[d] + 1):
        acc = acc * f
        if j in by_j:
            acc = acc + _over_common_denominator(by_j[j], polys, mult, d + 1)
    return acc


def linear_product_sum(n: int, factors: Callable, power: int, names: str = "t") -> MultiPoly:
    """sum over lambda |- n of w * prod_{r in shifts} prod_{x in names} (x + r),
    over n!^power.

    factors(lambda) returns (shifts, w): a sequence of integer shifts and an
    int weight w (any other weight raises TypeError); no shifts give the
    constant w.  A weight such as 1/prod h_u is f^lambda/n! by the hook
    length formula, so the caller passes f^lambda as w and 1 as power.
    names holds one-letter variables: "tv" gives (t + r)(v + r) per shift.
    The sum runs over _shift_groups in packed integers (multipoly.Packing),
    with sum |w| * prod (1 + |r|)^len(names) as the coefficient bound: each
    product is one math.prod over a table of the images of
    prod_{x in names} (x + r), and the total is read back once.
    """
    live = _shift_groups(n, factors)
    shifts = set(chain.from_iterable(live))
    norm = {r: (1 + abs(r)) ** len(names) for r in shifts}
    bound = sum(abs(w) * math.prod(map(norm.__getitem__, key)) for key, w in live.items())
    layout = Packing(dict.fromkeys(names, max(map(len, live), default=0)), bound)
    xs = [layout.image(MultiPoly.var(x)) for x in names]
    image = {r: math.prod(x + r for x in xs) for r in shifts}
    total = sum(w * math.prod(map(image.__getitem__, key)) for key, w in live.items())
    return layout.read(total, math.factorial(n) ** power)


def _shift_groups(n: int, factors: Callable) -> dict:
    """The summed int weight of each sorted shift tuple of factors over
    lambda |- n (lambda and its conjugate share a hook multiset), without
    the tuples whose weights sum to 0."""
    groups = {}
    for lam in partition_list(n):
        shifts, w = factors(lam)
        if not isinstance(w, int):
            raise TypeError(f"cannot use {type(w).__name__} as an integer weight")
        key = tuple(sorted(shifts))
        groups[key] = groups.get(key, 0) + w
    return {key: w for key, w in groups.items() if w}


def linear_product_series(
    order: int, factors: Callable, power: int, names: str = "t"
) -> TruncatedSeries:
    """sum_n x^n linear_product_sum(n, factors, power, names)."""
    return TruncatedSeries(
        order, [linear_product_sum(n, factors, power, names) for n in range(order + 1)]
    )


def _census_series(
    f: Callable[[int], object], counts_by_n: Sequence[dict[int, int]]
) -> TruncatedSeries:
    """The series whose x^n coefficient is sum_i f(i) * counts_by_n[n][i].

    f is called once per distinct value i and may return an integer, a
    rational, a polynomial or a rational function; the terms are added by
    MultiPoly arithmetic, so a float or other inexact value raises TypeError.
    """
    return TruncatedSeries(
        len(counts_by_n) - 1,
        [sum((f(i) * c for i, c in counts.items()), ZERO) for counts in counts_by_n],
    )


def part_sum_series(order: int, f: Callable[[int], object]) -> TruncatedSeries:
    """sum_n x^n sum_{lambda |- n} sum of f(p) over the parts p of lambda,
    from the number of parts equal to each i (hook_part_census)."""
    return _census_series(f, [hook_part_census(n)[0] for n in range(order + 1)])


def hook_sum_series(order: int, f: Callable[[int], object]) -> TruncatedSeries:
    """sum_n x^n sum_{lambda |- n} sum of f(h) over the hook lengths h of the
    cells of lambda, from the number of hooks equal to each i."""
    return _census_series(f, [hook_part_census(n)[1] for n in range(order + 1)])


@functools.lru_cache(maxsize=None)
def partition_gf(order: int) -> TruncatedSeries:
    """prod_m 1/(1 - x^m), the plain partition generating series; memoised,
    as every Lambert-type right-hand side of one order multiplies by it."""
    return eta_product([(1, 0, 1)], order)


# ----- hook-square polynomials (real-rootedness targets) ------------------------


@functools.lru_cache(maxsize=None)
def hook_square_polynomial(n: int) -> MultiPoly:
    """sum over lambda |- n of prod_u (h_u^2 + t)/h_u^2 as a polynomial in t.

    Memoised: C2.1, C2.2a and C2.2b all walk the same P_n.
    """

    def factors(lam):  # 1/prod h_u^2 = (f^lambda)^2/n!^2
        f = lam.dim_sytx()
        return [h * h for h in lam.hook_lengths()], f * f

    return linear_product_sum(n, factors, 2)


@functools.lru_cache(maxsize=None)
def _shifted_hooks(n: int) -> tuple[MultiPoly, ...]:
    """((t + h)/h for h = 0..n); entry 0 is unused.  One object per h, so
    each multiset of hooks is multiplied out once."""
    t = MultiPoly.var("t")
    return (ONE, *((t + h) * Fraction(1, h) for h in range(1, n + 1)))


def _hook_multisets(n: int, hooks: Callable) -> Counter:
    """How many partitions of n have each sorted tuple of hooks(lambda)."""
    return Counter(map(tuple, map(sorted, map(hooks, partition_list(n)))))


def _arm_free_hooks(lam: Partition) -> list[int]:
    """Hooks of the arm-free cells, one per row: row i ends in column p_i,
    whose leg is conj[p_i - 1] - i."""
    conj = lam.conjugate().parts
    return [conj[p - 1] - i + 1 for i, p in enumerate(lam.parts, start=1)]


def _leg_free_hooks(lam: Partition) -> list[int]:
    """Hooks of the leg-free cells, one per column: column j ends in row c_j,
    whose arm is parts[c_j - 1] - j."""
    parts = lam.parts
    return [parts[c - 1] - j + 1 for j, c in enumerate(lam.conjugate().parts, start=1)]


def arm_zero_sum(n: int) -> MultiPoly:
    """sum over lambda of prod over arm-free cells of (h_u + t)/h_u.

    Each row holds one arm-free cell, its last, so the hooks are read one
    per row (_arm_free_hooks) instead of from every cell; partitions are
    grouped by their sorted hooks, which index _shifted_hooks(n)."""
    return _multiset_product_sum(_hook_multisets(n, _arm_free_hooks), _shifted_hooks(n))


def leg_zero_sum(n: int) -> MultiPoly:
    """sum over lambda of prod over leg-free cells of (h_u + t)/h_u.

    Each column holds one leg-free cell, its bottom one, so the hooks are
    read one per column (_leg_free_hooks), grouped as in arm_zero_sum."""
    return _multiset_product_sum(_hook_multisets(n, _leg_free_hooks), _shifted_hooks(n))


def multiplicity_binomial_sum(n: int) -> MultiPoly:
    """sum over lambda of prod_j binom(k_j + t, k_j), k_j = multiplicity of j."""

    def factors(lam):  # binom(t + k, k) = (t + 1)...(t + k)/k!, over n! in all
        ks = lam.multiplicities().values()
        shifts = [i for k in ks for i in range(1, k + 1)]
        return shifts, math.factorial(n) // math.prod(map(math.factorial, ks))

    return linear_product_sum(n, factors, 1)


def max_unit_hooks(n: int) -> int:
    """b_n: the largest number of hook-length-1 cells over partitions of n.

    A cell has hook length 1 exactly when its arm and leg are 0: it ends its
    row and the row below is shorter.  So each row longer than the next one
    holds one such cell, and those rows are the last of each distinct part.

    So b_n is the most distinct part values of a partition of n, which a
    knapsack over the part values gives in O(n^2) steps, with no partition
    listed.  best[s] is the most distinct values of a partition of s into
    parts below v; with v = 2 that is 1 for every s > 0, all ones.  g[s] is
    the same with v used at least once: v added to a partition of s - v
    without it (+1), or one more v added to one that has it already (+0,
    so a value is never counted twice).  g's slots below v hold 0, which
    never wins the max.
    """
    best = [0] + [1] * n
    for v in range(2, n + 1):
        g = [0] * (n + 1)
        for s in range(v, n + 1):
            g[s] = max(best[s - v] + 1, g[s - v])
        best = list(map(max, best, g))
    return best[n]


def unit_hook_series(order: int, corrected: bool = False) -> TruncatedSeries:
    """Product side of the max-unit-hook identity.

    The eta block prod (1-x^(2j))^2 / prod (1-x^j) is the triangular-number
    series 1 + x + x^3 + x^6 + ...  The direct form multiplies it by
    x/(1-x); with corrected=True the constant term is removed before the
    geometric accumulation instead.  The two differ from order 2 on, and
    only the corrected form matches max_unit_hooks (the direct form counts
    the empty staircase too).
    """
    eta = eta_product([(2, 0, -2), (1, 0, 1)], order)
    if corrected:
        return (eta - 1) * geometric(order)
    x = TruncatedSeries.monomial(order, 1)
    return eta * geometric(order) * x


# ----- squares statistics --------------------------------------------------------


def _q_count(exponents) -> MultiPoly:
    """sum of q^e over the exponents, counted in one pass."""
    counts = Counter(exponents)
    return MultiPoly.from_dense([counts[e] for e in range(max(counts, default=-1) + 1)], "q")


def squares_polynomial(n: int) -> MultiPoly:
    """F_n(q) = sum over lambda |- n of q^(squares count)."""
    return _q_count(lam.squares_count() for lam in partition_list(n))


def squares_total(n: int) -> int:
    """f(n) = total square count over all partitions of n (geometric route)."""
    return sum(lam.squares_count_geometric() for lam in partition_list(n))


def equivalence_classes_D(n: int) -> dict[int, list[Partition]]:
    """Group partitions of n by the dot product <1,2,...> . (diagonal hooks)."""
    classes: dict[int, list[Partition]] = {}
    for lam in partition_list(n):
        j = lam.squares_count_by_diagonal()
        classes.setdefault(j, []).append(lam)
    return classes


# ----- q-series with square / first-hook statistics ------------------------------


def top_hook_series(order: int, gap2_only: bool = False) -> TruncatedSeries:
    """sum_n x^n sum q^(h(1,1)) over partitions of n, optionally restricted to
    partitions with parts differing by >= 2.

    The empty partition contributes 1 (exponent 0) in the unrestricted sum and
    is excluded from the restricted one, matching the k=0 / k>=1 base terms of
    the q-series these sums are compared against.
    """
    coeffs = [ZERO if gap2_only else ONE]
    for n in range(1, order + 1):
        coeffs.append(_q_count(
            lam.parts[0] + len(lam.parts) - 1
            for lam in partition_list(n)
            if not gap2_only or all(a - b >= 2 for a, b in zip(lam.parts, lam.parts[1:]))
        ))
    return TruncatedSeries(order, coeffs)


def _qpoch(coeff, k: int, order: int) -> TruncatedSeries:
    """(coeff x; x)_k = prod_{j=1..k} (1 - coeff x^j); factors of degree past
    the order are 1 at this truncation."""
    one = TruncatedSeries(order, [1])
    result = one
    for j in range(1, min(k, order) + 1):
        result = (one - TruncatedSeries.monomial(order, j, coeff)) * result
    return result


def _sparse_sum(
    order: int, k0: int, degree: Callable, coeff: Callable, den: Callable
) -> TruncatedSeries:
    """sum_{k >= k0} coeff(k) x^degree(k) / den(k), for a degree that grows
    with k: the sum stops at the first k whose degree passes the order."""
    total = TruncatedSeries(order)
    k = k0
    while degree(k) <= order:
        total = total + TruncatedSeries.monomial(order, degree(k), coeff(k)) / den(k)
        k += 1
    return total


def prop91_series(order: int) -> TruncatedSeries:
    """sum_{k>=1} x^(k^2) q^(3k-2) / (qx;x)_k."""
    q = MultiPoly.var("q")
    return _sparse_sum(order, 1, lambda k: k * k, lambda k: q ** (3 * k - 2),
                       lambda k: _qpoch(q, k, order))


def prop92_middle_series(order: int) -> TruncatedSeries:
    """sum_{k>=0} x^(k(k+1)) q^(2k) / ((qx;x)_k (qx;x)_{k+1})."""
    q = MultiPoly.var("q")
    return _sparse_sum(order, 0, lambda k: k * (k + 1), lambda k: q ** (2 * k),
                       lambda k: _qpoch(q, k, order) * _qpoch(q, k + 1, order))


def prop92_right_series(order: int) -> TruncatedSeries:
    """sum_n x^n sum_{j,i} q^j [q^(n-j)] binom(j-1, i)_q, with the
    empty-partition convention that the n=0 coefficient is 1 (the printed
    double sum gives 0).  Each row sum_i binom(j-1, i)_q is added up once,
    and its q^e coefficient is the q^j coefficient of x^(j+e)."""
    dense = [[1]] + [[0] * (n + 1) for n in range(1, order + 1)]  # dense[n][j]: x^n q^j
    for j in range(1, order + 1):
        row = sum((gaussian_binomial(j - 1, i) for i in range(j)), ZERO).dense_coeffs("q")
        for e, c in enumerate(row[: order - j + 1]):
            dense[j + e][j] = c
    return TruncatedSeries(order, [MultiPoly.from_dense(d, "q") for d in dense])


def thm95_series(order: int) -> TruncatedSeries:
    """sum_{k>=0} x^(k^2) q^(k(k+1)(2k+1)/6) / prod_{j=1..k} (1 - x^j q^(j(j+1)/2))^2."""
    q = MultiPoly.var("q")

    def den(k):
        blocks = (1 - TruncatedSeries.monomial(order, j, q ** (j * (j + 1) // 2))
                  for j in range(1, k + 1))
        return math.prod((block * block for block in blocks), start=TruncatedSeries(order, [1]))

    return _sparse_sum(
        order, 0, lambda k: k * k, lambda k: q ** (k * (k + 1) * (2 * k + 1) // 6), den
    )


def rr_count_series(order: int) -> TruncatedSeries:
    """sum_{k>=0} x^(k^2)/(x;x)_k; counts partitions with gaps >= 2."""
    return _sparse_sum(order, 0, lambda k: k * k, lambda k: 1, lambda k: _qpoch(1, k, order))


def rr_product_series(order: int) -> TruncatedSeries:
    """prod_j 1/((1-x^(5j-1))(1-x^(5j-4))); the mod-5 side of the count."""
    return eta_product([(5, 1, 1), (5, 4, 1)], order)


# ----- additive hook/part sums (quantum variants) --------------------------------


def _lambert_rhs(order: int, term: Callable) -> TruncatedSeries:
    """partition_gf(order) * sum_{k, m >= 1} term(k, m) x^(k m).

    Each Lambert-type sum below, sum_k c_k x^k / (1 - r x^k) and its square,
    expands to a divisor sum: x^n collects term(k, m) over n = k m.
    """
    tail = [ZERO] * (order + 1)
    for k in range(1, order + 1):
        for m in range(1, order // k + 1):
            tail[k * m] = tail[k * m] + term(k, m)
    return partition_gf(order) * TruncatedSeries(order, tail)


def power_sum_rhs_series(order: int, alpha: int) -> TruncatedSeries:
    """prod 1/(1-x^m) * sum_k k^(alpha+1) x^k/(1-x^k)."""
    return _lambert_rhs(order, lambda k, m: k ** (alpha + 1))


def marked_power_rhs_series(order: int, alpha: int, weighted: bool) -> TruncatedSeries:
    """prod 1/(1-x^m) * sum_k (k if weighted else 1) x^k q^(k^alpha)/(1-x^k).

    The weighted form pairs with the hook sum, the unweighted with the part
    sum; differentiating in q at q=1 recovers the plain power sums.
    """
    q = MultiPoly.var("q")
    return _lambert_rhs(order, lambda k, m: q ** (k**alpha) * (k if weighted else 1))


def part_marker_rhs_series(order: int) -> TruncatedSeries:
    """prod 1/(1-x^m) * sum_k q x^k/(1 - q x^k); marks one part value per term."""
    q = MultiPoly.var("q")
    return _lambert_rhs(order, lambda k, m: q**m)


def part_count_rhs_series(order: int) -> TruncatedSeries:
    """prod 1/(1-x^m) * sum_k x^k/(1-x^k)^2; total part size marker."""
    return _lambert_rhs(order, lambda k, m: m)


# ----- surd-quotient hook factor (involution series) ------------------------------


@functools.lru_cache(maxsize=None)
def surd_hook_factor(h: int) -> MultiPoly | RatFunc:
    """[(1+a)^h + (1-a)^h] / [(1+a)^h - (1-a)^h] * a/h in lowest terms: a
    MultiPoly for h <= 2, a RatFunc from h = 3 on."""
    a = MultiPoly.var("a")
    plus = (ONE + a) ** h
    minus = (ONE - a) ** h
    return (plus + minus) * a / ((plus - minus) * h)


def involution_moment_poly(n: int) -> MultiPoly:
    """sum_j a^(2j) / (2^j j! (n-2j)!); the 2-cycle census of involutions."""
    total = MultiPoly.const(0)
    for j in range(n // 2 + 1):
        c = Fraction(1, 2**j * math.factorial(j) * math.factorial(n - 2 * j))
        total = total + MultiPoly.monomial({"a": 2 * j}, c)
    return total


# ----- finite identities ----------------------------------------------------------


def hook_falling_factorial_moment(n: int, r: int) -> tuple[Fraction, Fraction]:
    """Plancherel-averaged falling-square hook sum and its closed form."""
    if n < 1 or r < 1:
        raise ValueError("identity needs n, r >= 1")
    lhs = Fraction(0)
    for lam in partition_list(n):
        f = lam.dim_sytx()
        cell_total = 0
        for h in lam.hook_lengths():
            prod = 1
            for j in range(r):
                prod *= h * h - j * j
            cell_total += prod
        lhs += Fraction(f * f * cell_total)
    lhs /= math.factorial(n)
    # n, r >= 1 keeps every argument nonnegative; math.comb gives 0 for k > n.
    rhs = Fraction(
        math.comb(2 * r + 1, r + 1) ** 2 * math.comb(n, r + 1) * math.factorial(r), 2 * r + 1
    ) + Fraction(
        math.comb(2 * r + 2, r + 1)
        * math.comb(2 * r - 2, r - 1)
        * math.comb(n, r)
        * math.factorial(r + 1),
        8 * r + 4,
    )
    return lhs, rhs


# ----- cycle-index determinant ----------------------------------------------------


Matrix = Sequence[Sequence[Fraction]]


def _validate_square(m: Matrix) -> int:
    n = len(m)
    if n == 0 or any(len(row) != n for row in m):
        raise NotSquare(f"matrix is not square: {m!r}")
    return n


def _mat_mul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> list[list[int]]:
    """The product of two square integer matrices."""
    cols = list(zip(*b))
    return [[sum(map(operator.mul, row, col)) for col in cols] for row in a]


def det_bareiss(m: Matrix) -> Fraction:
    """Determinant by Bareiss's fraction-free elimination (Math. Comp. 1968).

    Each row is scaled to integers by the lcm of its denominators, so every
    step divides exactly in the integers.  A zero pivot is swapped with the
    first lower row that has a nonzero entry in its column, flipping the
    sign; if there is none, the determinant is 0.
    """
    n = _validate_square(m)
    a, scale = [], 1
    for row in m:
        # An int or Fraction is read as it is: Fraction(x) of one makes an ABC check.
        row = [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in row]
        d = math.lcm(*(x.denominator for x in row))
        a.append([x.numerator * (d // x.denominator) for x in row])
        scale *= d
    sign, prev = 1, 1
    for k in range(n - 1):
        if not a[k][k]:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return Fraction(0)
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        pivot, top = a[k][k], a[k]
        for row in a[k + 1 :]:
            c = row[k]
            for j in range(k + 1, n):
                row[j] = (pivot * row[j] - c * top[j]) // prev
        prev = pivot
    return Fraction(sign * a[-1][-1], scale)


def power_traces(m: Matrix) -> list[Fraction]:
    """tr(M), tr(M^2), ..., tr(M^n) for an n x n matrix M.

    M is scaled once by the lcm d of its entries' denominators, so the
    powers are taken of the integer matrix A = d*M, and tr(M^k) is
    tr(A^k) / d^k.
    """
    n = _validate_square(m)
    d = math.lcm(*(x.denominator for row in m for x in row))
    a = [[x.numerator * (d // x.denominator) for x in row] for row in m]
    powers = [a]
    for _ in range(n - 1):
        powers.append(_mat_mul(powers[-1], a))
    return [Fraction(sum(p[i][i] for i in range(n)), d**k) for k, p in enumerate(powers, 1)]


def cycle_index_sum(
    traces: Sequence[Fraction], sign_convention: str = "newton"
) -> Fraction:
    """(1/n!) sum over S_n of sign * t_1^c_1 ... t_n^c_n, t_i = traces[i - 1].

    sign_convention="newton" uses (-1)^(n - cycles), which reproduces det(M)
    from power_traces(M); "alternating" uses (-1)^(cycles - 1).  Both sum
    over the partitions of n read as cycle lengths, weighted by their class
    sizes, never permutation by permutation.

    The sum runs in ints: with D the lcm of the traces' denominators,
    a_j = t_j D^j is an integer, and since the parts of each lambda sum to
    n, prod_{j in lambda} t_j = prod_{j in lambda} a_j / D^n.
    """
    if sign_convention not in ("newton", "alternating"):
        raise ValueError(f"unknown sign convention {sign_convention!r}")
    n = len(traces)
    d = math.lcm(*(t.denominator for t in traces))
    a = [t.numerator * (d**j // t.denominator) for j, t in enumerate(traces, start=1)]
    total = 0
    for lam in partition_list(n):
        prod = 1
        for j in lam.parts:
            prod *= a[j - 1]
        if sign_convention == "newton":
            sign = -1 if (n - len(lam)) % 2 else 1
        else:
            sign = -1 if (len(lam) - 1) % 2 else 1
        total += sign * lam.class_size * prod
    return Fraction(total, d**n * math.factorial(n))
