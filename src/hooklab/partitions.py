"""Integer partitions with hook, arm, leg and content statistics.

Conventions (all 1-based):
  * cell (i, j) means row i, column j of the Young diagram;
  * hook(i, j) = parts[i] + conj[j] - i - j + 1, arm + leg + 1;
  * content(i, j) = j - i;
  * the symplectic and orthogonal contents (the Partition methods
    symplectic_content and orthogonal_content) follow the two-case row/column
    formulas, reading any index beyond the diagram as 0;
  * cell_stats gives each cell's CellStats: i, j, arm, leg, hook, content.

A statistic of every cell comes in row-major cell order, computed in one
pass over the diagram; hook_lengths is computed once per Partition object
and kept on it, as conjugate is, and cell_stats is built afresh per call.

Partitions of n are enumerated in reverse-lexicographic order, (n) first and
(1, ..., 1) last.  That order is part of the contract: checks report the
first counterexample they meet, so witnesses are reproducible.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType
from typing import Iterator, Mapping, NamedTuple

from .errors import BudgetExceeded


class Partition:
    """Immutable weakly-decreasing positive parts.

    Each part must be an integer (operator.index), so a float or a string
    raises TypeError instead of being truncated or parsed.
    """

    __slots__ = ("parts", "_conj", "_hooks")

    def __init__(self, parts=()):
        parts = tuple(map(operator.index, parts))
        if any(p <= 0 for p in parts):
            raise ValueError("parts must be positive")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError("parts must be weakly decreasing")
        self.parts = parts
        self._conj = self._hooks = None

    @property
    def n(self) -> int:
        return sum(self.parts)

    def __len__(self):
        return len(self.parts)

    def __eq__(self, other):
        if isinstance(other, Partition):
            return self.parts == other.parts
        return NotImplemented

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        return f"Partition({list(self.parts)})"

    def render(self) -> str:
        return "[" + ",".join(str(p) for p in self.parts) + "]"

    def conjugate(self) -> Partition:
        if self._conj is None:
            parts = self.parts
            if not parts:
                self._conj = self
            else:
                # Column j is as long as the number of parts >= j.
                conj = []
                i = len(parts)
                for j in range(1, parts[0] + 1):
                    while parts[i - 1] < j:
                        i -= 1
                    conj.append(i)
                self._conj = _trusted(tuple(conj))
        return self._conj

    # -- per-cell statistics ------------------------------------------------

    def cells(self):
        for i, p in enumerate(self.parts, start=1):
            for j in range(1, p + 1):
                yield (i, j)

    def hook(self, i: int, j: int) -> int:
        conj = self.conjugate().parts
        return self.parts[i - 1] + conj[j - 1] - i - j + 1

    def hook_lengths(self) -> tuple[int, ...]:
        """All hook lengths, row by row; computed on the first call."""
        if self._hooks is None:
            # 0-based row i and column j: hook = parts[i] + conj[j] - i - j - 1.
            conj = self.conjugate().parts
            self._hooks = tuple([
                p + conj[j] - i - j - 1 for i, p in enumerate(self.parts) for j in range(p)
            ])
        return self._hooks

    def first_column_hooks(self) -> tuple[int, ...]:
        """Strictly decreasing hook lengths of column 1: parts[i] + len - i."""
        L = len(self.parts)
        return tuple(p + L - i for i, p in enumerate(self.parts, start=1))

    def contains_hook(self, t: int) -> bool:
        """Whether some cell has hook length exactly t.

        Uses the first-column characterization: t occurs as a hook length
        iff some first-column hook b >= t has b - t absent from the
        first-column hook set.  Equivalent to scanning every cell.
        """
        if t <= 0:
            return False
        fch = self.first_column_hooks()
        fset = set(fch)
        for b in fch:
            if b >= t and (b - t) not in fset:
                return True
        return False

    def symplectic_content(self, i: int, j: int) -> int:
        parts = self.parts
        conj = self.conjugate().parts
        if i > j:
            pi = parts[i - 1] if i <= len(parts) else 0
            pj = parts[j - 1] if j <= len(parts) else 0
            return pi + pj - i - j + 2
        ci = conj[i - 1] if i <= len(conj) else 0
        cj = conj[j - 1] if j <= len(conj) else 0
        return i + j - ci - cj

    def orthogonal_content(self, i: int, j: int) -> int:
        parts = self.parts
        conj = self.conjugate().parts
        if i >= j:
            pi = parts[i - 1] if i <= len(parts) else 0
            pj = parts[j - 1] if j <= len(parts) else 0
            return pi + pj - i - j
        ci = conj[i - 1] if i <= len(conj) else 0
        cj = conj[j - 1] if j <= len(conj) else 0
        return i + j - ci - cj - 2

    def symplectic_contents(self) -> list[int]:
        """symplectic_content of every cell, row by row.

        Inside the diagram j < i <= len(parts) and i <= j <= len(conj), so
        neither branch reads past the parts or the conjugate.
        """
        parts = self.parts
        conj = self.conjugate().parts
        out = []
        for i, p in enumerate(parts, start=1):
            for j in range(1, p + 1):
                if i > j:
                    out.append(p + parts[j - 1] - i - j + 2)
                else:
                    out.append(i + j - conj[i - 1] - conj[j - 1])
        return out

    def orthogonal_contents(self) -> list[int]:
        """orthogonal_content of every cell, row by row; as in
        symplectic_contents, no index reads past the diagram."""
        parts = self.parts
        conj = self.conjugate().parts
        out = []
        for i, p in enumerate(parts, start=1):
            for j in range(1, p + 1):
                if i >= j:
                    out.append(p + parts[j - 1] - i - j)
                else:
                    out.append(i + j - conj[i - 1] - conj[j - 1] - 2)
        return out

    # -- aggregates -----------------------------------------------------------

    def dim_sytx(self) -> int:
        """Number of standard fillings, n! / prod(hooks); always exact."""
        return math.factorial(self.n) // math.prod(self.hook_lengths())

    def diagonal_hooks(self) -> tuple[int, ...]:
        """Hook lengths h(1,1), h(2,2), ... down the main diagonal.

        Column i is as long as the number k of parts >= i, and k only falls
        as i grows, so one pointer walks up from the last part instead of
        building the conjugate.
        """
        parts = self.parts
        out = []
        k = len(parts)
        for i, p in enumerate(parts, start=1):
            if p < i:
                break
            while parts[k - 1] < i:
                k -= 1
            out.append(p + k - 2 * i + 1)
        return tuple(out)

    def squares_count(self) -> int:
        """Sum of min(i, j) over cells == dot(<1,2,...>, diagonal hooks).

        Row i of length p adds 1 + 2 + ... + min(p, i), then i for each of
        its p - i cells past column i.
        """
        total = 0
        for i, p in enumerate(self.parts, start=1):
            if p <= i:
                total += p * (p + 1) // 2
            else:
                total += i * (i + 1) // 2 + i * (p - i)
        return total

    def squares_count_by_diagonal(self) -> int:
        return sum(i * h for i, h in enumerate(self.diagonal_hooks(), start=1))

    def squares_count_geometric(self) -> int:
        """Number of k-by-k cell blocks contained in the diagram, all k >= 1."""
        total = 0
        k = 1
        while True:
            found = 0
            for i, p in enumerate(self.parts, start=1):
                if i >= k and p >= k:
                    found += p - k + 1
            if not found:
                break
            total += found
            k += 1
        return total

    def multiplicities(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for p in self.parts:
            out[p] = out.get(p, 0) + 1
        return out

    @property
    def odd(self) -> int:
        return sum(1 for p in self.parts if p % 2)

    @property
    def even(self) -> int:
        return len(self.parts) - self.odd

    @property
    def class_size(self) -> int:
        """n!/z_lambda, the permutations of S_n whose cycle lengths are these parts."""
        z = 1
        for j, m in self.multiplicities().items():
            z *= j**m * math.factorial(m)
        return math.factorial(self.n) // z


class CellStats(NamedTuple):
    i: int
    j: int
    arm: int
    leg: int
    hook: int
    content: int


def cell_stats(part: Partition) -> tuple[CellStats, ...]:
    """Every cell's CellStats, row by row."""
    conj = part.conjugate().parts
    new = tuple.__new__  # skips CellStats.__new__, a Python-level call per cell
    out = []
    for i, p in enumerate(part.parts, start=1):
        for j in range(1, p + 1):
            arm = p - j
            leg = conj[j - 1] - i
            out.append(new(CellStats, (i, j, arm, leg, arm + leg + 1, j - i)))
    return tuple(out)


def _trusted(parts: tuple) -> Partition:
    """Wrap a tuple already known to be positive and weakly decreasing."""
    lam = Partition.__new__(Partition)
    lam.parts = parts
    lam._conj = lam._hooks = None
    return lam


EMPTY = Partition(())


def partitions_of(n: int) -> Iterator[Partition]:
    """All partitions of n in reverse-lexicographic order, largest first."""
    if n < 0:
        raise ValueError("partitions of a negative integer")
    if n == 0:
        yield EMPTY
        return
    parts = [n]
    while True:
        yield _trusted(tuple(parts))
        k = len(parts) - 1
        while k >= 0 and parts[k] == 1:
            k -= 1
        if k < 0:
            return
        parts[k] -= 1
        val = parts[k]
        rem = n - sum(parts[: k + 1])
        parts = parts[: k + 1]
        while rem:
            chunk = min(val, rem)
            parts.append(chunk)
            rem -= chunk


@lru_cache(maxsize=None)
def partition_list(n: int) -> tuple[Partition, ...]:
    """Cached tuple of partitions of n (reverse-lexicographic), built from
    the cached lists of smaller n.

    The partitions of n with largest part k are k followed by a partition
    of n - k whose largest part is at most k.  In reverse-lexicographic
    order those are a suffix of partition_list(n - k), found by bisecting
    on the first part, so the list for n joins these suffixes for
    k = n, n - 1, ..., 1.  The order is that of partitions_of(n), the lazy
    generator that keeps no lists.
    """
    if n < 0:
        raise ValueError("partitions of a negative integer")
    if n == 0:
        return (EMPTY,)
    out = [_trusted((n,))]
    for k in range(n - 1, 0, -1):
        rest = partition_list(n - k)
        lo, hi = 0, len(rest)
        while lo < hi:  # the first partition of n - k whose largest part is <= k
            mid = (lo + hi) // 2
            if rest[mid].parts[0] > k:
                lo = mid + 1
            else:
                hi = mid
        out.extend(_trusted((k,) + mu.parts) for mu in rest[lo:])
    return tuple(out)


@lru_cache(maxsize=None)
def partition_count(n: int) -> int:
    """p(n) via the pentagonal-number recurrence (independent of enumeration)."""
    if n < 0:
        return 0
    if n == 0:
        return 1
    total = 0
    k = 1
    while True:
        g1 = k * (3 * k - 1) // 2
        g2 = k * (3 * k + 1) // 2
        if g1 > n and g2 > n:
            break
        sign = -1 if k % 2 == 0 else 1
        if g1 <= n:
            total += sign * partition_count(n - g1)
        if g2 <= n:
            total += sign * partition_count(n - g2)
        k += 1
    return total


def is_t_core(part: Partition, t: int) -> bool:
    """True iff no cell of the diagram has hook length exactly t."""
    if t <= 0:
        raise ValueError("core parameter must be positive")
    return not part.contains_hook(t)


@lru_cache(maxsize=None)
def hook_part_census(n: int) -> tuple[Mapping[int, int], Mapping[int, int]]:
    """Over all partitions of n: (count of parts equal to i, count of hooks
    equal to i).  Memoised; the counts are read-only mappings, so no caller
    can change what the next one reads."""
    parts_count: dict[int, int] = {}
    hooks_count: dict[int, int] = {}
    for lam in partition_list(n):
        for p in lam.parts:
            parts_count[p] = parts_count.get(p, 0) + 1
        for h in lam.hook_lengths():
            hooks_count[h] = hooks_count.get(h, 0) + 1
    return MappingProxyType(parts_count), MappingProxyType(hooks_count)


def rr_sets(n: int) -> tuple[list[Partition], list[Partition]]:
    """(A_n, B_n): parts pairwise differing by >= 2, and parts congruent to
    1 or 4 mod 5.  The two lists are equinumerous for every n."""
    a_set = []
    b_set = []
    for lam in partition_list(n):
        ps = lam.parts
        if all(ps[i] - ps[i + 1] >= 2 for i in range(len(ps) - 1)):
            a_set.append(lam)
        if all(p % 5 in (1, 4) for p in ps):
            b_set.append(lam)
    return a_set, b_set


# ----- simultaneous cores ------------------------------------------------------


@dataclass(frozen=True)
class CoreFamily:
    s: int
    members: tuple[Partition, ...]

    @property
    def count(self) -> int:
        return len(self.members)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(m.n for m in self.members)

    @property
    def max_size(self) -> int:
        return max(self.sizes) if self.members else 0

    @property
    def total_size(self) -> int:
        return sum(self.sizes)


def sss_core_size_bound(s: int) -> int:
    """Exact maximum size of an (s, s+1)-core: (s^2-1)((s+1)^2-1)/24."""
    return (s * s - 1) * ((s + 1) * (s + 1) - 1) // 24


def _semigroup_gaps(s: int) -> list[int]:
    """Positive integers not representable as x*s + y*(s+1), x, y >= 0."""
    frob = s * (s + 1) - s - (s + 1)
    if frob < 1:
        return []
    reachable = [False] * (frob + 1)
    reachable[0] = True
    for v in range(1, frob + 1):
        if (v >= s and reachable[v - s]) or (v >= s + 1 and reachable[v - s - 1]):
            reachable[v] = True
    return [v for v in range(1, frob + 1) if not reachable[v]]


def _partition_from_beta(beta: tuple[int, ...]) -> Partition:
    """Partition whose first-column hook set is the given set of positive ints.

    Distinct positive ints b_1 > ... > b_L give parts b_k - (L - k) that are
    positive and weakly decreasing, so the parts are not checked again.
    """
    desc = sorted(beta, reverse=True)
    L = len(desc)
    return _trusted(tuple(b - (L - idx) for idx, b in enumerate(desc, start=1)))


def _family(s: int, members: list[Partition]) -> CoreFamily:
    """The family in order of size, then of parts in reverse-lexicographic order."""
    # Two stable sorts: by parts, largest first, then by size.
    members.sort(key=operator.attrgetter("parts"), reverse=True)
    members.sort(key=operator.attrgetter("n"))
    return CoreFamily(s, tuple(members))


def _beta_walk(s: int, budget: int) -> CoreFamily:
    """The (s, s+1, s+2)-cores, by the walk enumerate_sss_cores describes."""
    # Bit 0 and the bits of non-gaps are never set in a beta-set, so a gap
    # g with g - st = 0 or a non-gap for some step st is never taken.  The
    # gaps that no core takes (about half) are dropped first: a gap is kept
    # when the kept gaps below it cover its need mask.
    gaps, needs, kept = [], [], 0
    for g in _semigroup_gaps(s):
        need = sum(1 << (g - st) for st in (s, s + 1, s + 2) if st <= g)
        if kept & need == need:
            gaps.append(g)
            needs.append(need)
            kept |= 1 << g
    members = []
    stack = [(0, 0)]
    while stack:
        i, beta = stack.pop()
        # beta itself is a core: the gaps from i on are all skipped.  Each
        # gap from i on that beta admits starts a branch that takes it next.
        if len(members) == budget:
            raise BudgetExceeded(f"beta walk found over {budget} cores at s={s}")
        members.append(_partition_from_beta([g for g in gaps if beta >> g & 1]))
        for j in range(i, len(gaps)):
            need = needs[j]
            if beta & need == need:
                stack.append((j + 1, beta | 1 << gaps[j]))
    return _family(s, members)


#: The beta walk's family for each s walked so far in this process.
_core_families: dict[int, CoreFamily] = {}


def enumerate_sss_cores(s: int, method: str = "beta", budget: int = 200_000) -> CoreFamily:
    """All partitions that are simultaneously s-, (s+1)- and (s+2)-cores.

    method="beta" walks first-column hook sets: the subsets of the gaps of
    <s, s+1> closed under subtracting s, s+1 and s+2, i.e. the order ideals
    of the gap poset.  The beta-set is an int bitmask (bit g for gap g), and
    each gap has a precomputed need mask, the bits of g - s, g - s - 1 and
    g - s - 2 at or above 0, so "may g be taken" is one `&` test.  An
    iterative depth-first walk over the gaps in ascending order starts from
    the empty set; each state it pops is one core (every later gap
    skipped), and it pushes one state per later gap that the core admits,
    that gap taken and the gaps between skipped.  So it reaches each closed
    set exactly once and nothing else.  `budget` caps the number of cores
    found.  The family of each s is memoised for the life of the process,
    so C11.1, C11.2 and C11.3 walk each s once between them.  The budget
    holds for a memoised family too: a call whose budget is below the
    family's size raises BudgetExceeded whether or not the family is
    memoised, and a walk that raises memoises nothing.

    method="filter" brute-forces every partition of every n up to the exact
    (s, s+1)-core size bound and keeps the triple cores; transparently
    correct, used to cross-validate the beta walk at small s.  `budget` caps
    the partitions scanned.  It memoises nothing.  Either method raises
    BudgetExceeded past its budget.
    """
    if s < 1:
        raise ValueError("s must be positive")
    if method == "beta":
        family = _core_families.get(s)
        if family is None:
            family = _core_families[s] = _beta_walk(s, budget)
        if family.count > budget:
            raise BudgetExceeded(f"beta walk found over {budget} cores at s={s}")
        return family
    if method != "filter":
        raise ValueError(f"unknown enumeration method {method!r}")
    bound = sss_core_size_bound(s)
    total = sum(partition_count(k) for k in range(bound + 1))
    if total > budget:
        raise BudgetExceeded(
            f"filter enumeration would scan {total} partitions, over budget {budget}"
        )
    members = []
    for size in range(bound + 1):
        for lam in partitions_of(size):
            if is_t_core(lam, s) and is_t_core(lam, s + 1) and is_t_core(lam, s + 2):
                members.append(lam)
    return _family(s, members)
