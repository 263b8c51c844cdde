"""Partition enumeration, per-cell statistics, cores and hook census."""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import hooklab
from hooklab import partitions
from hooklab.errors import BudgetExceeded
from hooklab.harness import run_check
from hooklab.partitions import (
    N0,
    Partition,
    _descend,
    _partition_from_beta,
    _semigroup_gaps,
    cell_stats,
    enumerate_sss_cores,
    hook_part_census,
    is_t_core,
    partition_count,
    partition_list,
    rr_sets,
)

# p(0)..p(12)
P_VALUES = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77]


def partitions_of(n):
    """All partitions of n in reverse-lexicographic order, one at a time:
    the oracle for partition_list, by a route of its own.  Each step lowers
    the last part above 1 and refills the rest of n, re-summed from the
    prefix, in parts no larger."""
    if n == 0:
        yield Partition(())
        return
    parts = [n]
    while True:
        yield Partition(parts)
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


def all_partitions_upto(n):
    for m in range(n + 1):
        yield from partition_list(m)


any_partition = st.integers(0, 12).flatmap(
    lambda n: st.sampled_from(list(partition_list(n))) if n else st.just(Partition(()))
)


def test_counts_match_known_values():
    for n, expected in enumerate(P_VALUES):
        assert len(partition_list(n)) == expected
        assert partition_count(n) == expected


def test_enumeration_is_reverse_lexicographic_and_duplicate_free():
    for n in [*range(9), N0 + 1]:
        lams = [lam.parts for lam in partition_list(n)]
        assert lams == sorted(lams, reverse=True)
        assert len(set(lams)) == len(lams)
        assert all(sum(p) == n for p in lams)


def test_partition_list_equals_the_generator_part_for_part():
    for n in range(36):
        lams = partition_list(n)
        first = [lam.parts for lam in lams]
        assert first == [lam.parts for lam in partitions_of(n)]
        # A stream past N0 is made afresh by each pass: a second pass
        # sees the same partitions, not an exhausted iterator.
        assert [lam.parts for lam in lams] == first
        assert isinstance(lams, tuple) == (n <= N0)
    with pytest.raises(ValueError):
        partition_list(-1)


def test_the_stream_obeys_its_cap_at_every_part_size():
    m = N0 + 2
    every = [lam.parts for lam in partitions_of(m)]
    for cap in range(1, m + 2):
        want = [(9, *parts) for parts in every if parts[0] <= cap]
        assert [lam.parts for lam in _descend(m, cap, (9,), N0)] == want


def test_streamed_partitions_are_not_kept():
    first = next(iter(partition_list(N0 + 1)))
    assert first.parts == (N0 + 1,)
    assert next(iter(partition_list(N0 + 1))) is not first
    assert next(iter(partition_list(N0))) is partition_list(N0)[0]


def test_the_table_holds_no_n_past_n0():
    for n in range(N0 + 1):
        partition_list(n)
    assert partition_list.cache_info().currsize == N0 + 1
    assert run_check("L9.3", {"max_n": 30}).status == "verified"
    assert partition_list.cache_info().currsize == N0 + 1


def test_l93_past_the_table_runs_in_bounded_memory():
    """L9.3 at max_n=40 reads every partition of n <= 40 (215,308);
    cached, those lists took about 60 MB, and streamed the process stays
    near its size at import.  The child reports VmHWM, the peak resident
    set of its own image: its ru_maxrss would count this test process's
    too, since Linux carries it across exec."""
    if not sys.platform.startswith("linux"):
        pytest.skip("reads /proc/self/status")
    code = (
        "import re; from hooklab.harness import run_check; "
        "assert run_check('L9.3', {'max_n': 40}).status == 'verified'; "
        "print(re.search(r'VmHWM:\\s*(\\d+) kB', open('/proc/self/status').read())[1])"
    )
    env = dict(os.environ)
    package_root = str(Path(hooklab.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 40 * 1024, f"peak RSS {int(proc.stdout) / 1024:.1f} MB"


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition([2, 3])
    with pytest.raises(ValueError):
        Partition([1, 0])
    with pytest.raises(ValueError):
        partition_list(-1)
    # parts must be integers, not values that int() would truncate or parse
    with pytest.raises(TypeError):
        Partition([2.7, 1])
    with pytest.raises(TypeError):
        Partition(["3"])
    assert Partition([True]) == Partition([1])


def test_enumerated_partitions_equal_validated_ones():
    for n in [*range(13), N0 + 1]:
        for lam in partition_list(n):
            assert type(lam.parts) is tuple
            assert all(type(p) is int for p in lam.parts)
            assert lam == Partition(lam.parts)
            assert lam.parts == Partition(list(lam.parts)).parts


def test_conjugate_counts_columns():
    for n in range(13):
        for lam in partition_list(n):
            width = lam.parts[0] if lam.parts else 0
            columns = tuple(
                sum(1 for p in lam.parts if p >= j) for j in range(1, width + 1)
            )
            conj = lam.conjugate()
            assert conj.parts == columns
            assert conj == Partition(columns)
            assert conj.conjugate() == lam


@given(any_partition)
def test_conjugation_is_an_involution(lam):
    assert lam.conjugate().conjugate() == lam
    assert lam.conjugate().n == lam.n


@given(any_partition)
def test_hook_multiset_survives_conjugation(lam):
    assert sorted(lam.hook_lengths()) == sorted(lam.conjugate().hook_lengths())


@given(any_partition)
def test_cell_stats_consistency(lam):
    stats = cell_stats(lam)
    assert len(stats) == lam.n
    for cs in stats:
        assert cs.hook == cs.arm + cs.leg + 1
        assert cs.hook == lam.hook(cs.i, cs.j)
        assert cs.content == cs.j - cs.i


def test_whole_diagram_statistics_match_the_per_cell_definitions():
    # A fresh object per partition, so each statistic is computed here
    # rather than read from a memo another test filled.
    for lam in all_partitions_upto(14):
        lam = Partition(lam.parts)
        cells = list(lam.cells())
        hooks = lam.hook_lengths()
        assert hooks == tuple(lam.hook(i, j) for i, j in cells)
        assert lam.hook_lengths() is hooks
        stats = cell_stats(lam)
        assert [(cs.i, cs.j) for cs in stats] == cells
        assert lam.symplectic_contents() == [lam.symplectic_content(i, j) for i, j in cells]
        assert lam.orthogonal_contents() == [lam.orthogonal_content(i, j) for i, j in cells]
        conj = lam.conjugate().parts
        assert lam.diagonal_hooks() == tuple(
            p + conj[i - 1] - 2 * i + 1 for i, p in enumerate(lam.parts, start=1) if p >= i
        )
        assert lam.squares_count() == sum(min(i, j) for i, j in cells)


def test_symplectic_orthogonal_contents_swap_under_conjugation():
    for lam in all_partitions_upto(8):
        conj = lam.conjugate()
        for cs in cell_stats(lam):
            assert lam.symplectic_content(cs.i, cs.j) == -conj.orthogonal_content(cs.j, cs.i)


def test_hook_products_give_integer_tableau_counts():
    # n! / prod(hooks) is the standard-filling count; squares sum to n!
    for n in range(1, 9):
        total = 0
        for lam in partition_list(n):
            f = lam.dim_sytx()
            prod = math.prod(lam.hook_lengths())
            assert f * prod == math.factorial(n)
            total += f * f
        assert total == math.factorial(n)


def test_first_column_hooks():
    lam = Partition([4, 2, 1])
    assert lam.first_column_hooks() == (6, 3, 1)
    hooks = sorted(lam.hook_lengths(), reverse=True)
    assert hooks[0] == 6


def test_diagonal_hooks_have_gaps_of_two_and_sum_n():
    for lam in all_partitions_upto(12):
        d = lam.diagonal_hooks()
        assert sum(d) == lam.n
        assert all(d[i] - d[i + 1] >= 2 for i in range(len(d) - 1))


def test_diagonal_hook_map_is_onto_the_gap2_set():
    for n in range(16):
        image = {lam.diagonal_hooks() for lam in partition_list(n)}
        a_set = {lam.parts for lam in rr_sets(n)[0]}
        assert image == a_set


def test_rr_sets_are_the_filtered_enumeration_in_order():
    for n in range(N0 + 1):
        lams = [lam.parts for lam in partitions_of(n)]
        a_set, b_set = rr_sets(n)
        assert [lam.parts for lam in a_set] == [
            ps for ps in lams if all(a - b >= 2 for a, b in zip(ps, ps[1:]))
        ]
        assert [lam.parts for lam in b_set] == [
            ps for ps in lams if all(p % 5 in (1, 4) for p in ps)
        ]


def test_rr_sets_are_equinumerous():
    for n in range(18):
        a_set, b_set = rr_sets(n)
        assert len(a_set) == len(b_set)
        for lam in a_set:
            ps = lam.parts
            assert all(ps[i] - ps[i + 1] >= 2 for i in range(len(ps) - 1))
        for lam in b_set:
            assert all(p % 5 in (1, 4) for p in lam.parts)


def test_statistics_fields():
    lam = Partition([3, 3, 1])
    assert lam.parts.count(1) == 1
    assert len(set(lam.parts)) == 2
    assert lam.hook_lengths().count(1) == 2  # always equals the distinct parts
    assert lam.multiplicities() == {3: 2, 1: 1}
    assert lam.odd == 3
    assert lam.even == 0
    assert len(lam) == 3
    assert lam.class_size == math.factorial(7) // (3**2 * 2 * 1)  # n!/z_lambda = 280


@given(any_partition)
def test_unit_hooks_count_distinct_parts(lam):
    d1 = lam.hook_lengths().count(1)
    assert d1 == sum(1 for h in lam.hook_lengths() if h == 1)
    assert d1 == len(set(lam.parts))


def test_hook_part_census_balance():
    # i * (#parts equal to i over all partitions) == #hooks equal to i
    for n in range(1, 11):
        parts_census, hooks_census = hook_part_census(n)
        for i in range(1, n + 1):
            parts_i = sum(
                sum(1 for p in lam.parts if p == i) for lam in partition_list(n)
            )
            hooks_i = sum(
                sum(1 for h in lam.hook_lengths() if h == i)
                for lam in partition_list(n)
            )
            assert i * parts_i == hooks_i
            assert parts_census.get(i, 0) == parts_i
            assert hooks_census.get(i, 0) == hooks_i
    # The census is memoised, so a caller cannot write to it.
    assert hook_part_census(10) is hook_part_census(10)
    for census in hook_part_census(10):
        with pytest.raises(TypeError):
            census[1] = 0


def test_t_core_matches_direct_hook_scan():
    for lam in all_partitions_upto(10):
        hooks = set(lam.hook_lengths())
        for t in range(1, 12):
            assert is_t_core(lam, t) == (t not in hooks)
            assert lam.contains_hook(t) == (t in hooks)


# ----- simultaneous cores ----------------------------------------------------------


def test_sss_core_counts_and_extremes():
    counts = [enumerate_sss_cores(s).count for s in range(1, 7)]
    assert counts == [1, 2, 4, 9, 21, 51]
    maxima = [enumerate_sss_cores(s).max_size for s in range(1, 7)]
    assert maxima == [0, 1, 2, 7, 12, 26]
    totals = [enumerate_sss_cores(s).total_size for s in range(1, 7)]
    assert totals == [0, 1, 5, 25, 105, 420]


def test_sss_core_members_really_are_cores():
    for s in range(1, 10):
        fam = enumerate_sss_cores(s)
        assert len(set(fam.members)) == fam.count
        for lam in fam.members:
            for t in (s, s + 1, s + 2):
                assert is_t_core(lam, t)


def _sss_core_size_bound(s):
    """Exact maximum size of an (s, s+1)-core: (s^2-1)((s+1)^2-1)/24."""
    return (s * s - 1) * ((s + 1) * (s + 1) - 1) // 24


def _filtered_cores(s):
    """Every partition of every n up to the (s, s+1)-core size bound that
    is an s-, (s+1)- and (s+2)-core: brute force, with no beta-sets."""
    return [
        lam
        for n in range(_sss_core_size_bound(s) + 1)
        for lam in partition_list(n)
        if all(is_t_core(lam, t) for t in (s, s + 1, s + 2))
    ]


def test_beta_walk_agrees_with_brute_force_filter():
    for s in range(1, 6):
        fast = enumerate_sss_cores(s)
        slow = _filtered_cores(s)
        assert sorted(m.parts for m in fast.members) == sorted(m.parts for m in slow)


def test_filter_misses_nothing_up_to_the_size_bound():
    # the pair-core size bound caps simultaneous cores too
    for s in range(2, 5):
        bound = _sss_core_size_bound(s)
        biggest = enumerate_sss_cores(s).max_size
        assert biggest <= bound


def test_enumerate_rejects_bad_input():
    with pytest.raises(ValueError):
        enumerate_sss_cores(0)
    with pytest.raises(BudgetExceeded):
        enumerate_sss_cores(40, budget=10)


def _subset_mask_cores(s):
    """Every subset of the gaps of <s, s+1>, kept when closed under s, s+1, s+2."""
    gaps = _semigroup_gaps(s)
    members = []
    for mask in range(1 << len(gaps)):
        chosen = [g for i, g in enumerate(gaps) if mask >> i & 1]
        if all(b < st or b - st in chosen for b in chosen for st in (s, s + 1, s + 2)):
            members.append(_partition_from_beta(tuple(chosen)))
    members.sort(key=lambda p: (p.n, tuple(-x for x in p.parts)))
    return tuple(members)


def test_beta_walk_equals_subset_mask_oracle_member_for_member():
    for s in range(1, 7):
        assert enumerate_sss_cores(s).members == _subset_mask_cores(s)


def _motzkin(upto):
    # (n+3) M_{n+1} = (2n+3) M_n + 3n M_{n-1}, M_0 = M_1 = 1
    m = [1, 1]
    for n in range(1, upto):
        m.append(((2 * n + 3) * m[n] + 3 * n * m[n - 1]) // (n + 3))
    return m


def test_sss_core_counts_are_motzkin_numbers():
    motzkin = _motzkin(12)
    assert motzkin[:8] == [1, 1, 2, 4, 9, 21, 51, 127]
    for s in range(1, 13):
        assert enumerate_sss_cores(s).count == motzkin[s]


def test_beta_walk_budget_caps_cores_found():
    assert enumerate_sss_cores(4, budget=9).count == 9
    with pytest.raises(BudgetExceeded):
        enumerate_sss_cores(4, budget=8)
    # 990 gaps: the walk must not recurse once per gap
    with pytest.raises(BudgetExceeded):
        enumerate_sss_cores(45, budget=10)


@pytest.fixture
def no_families(monkeypatch):
    """An empty family memo for the test, so every s is walked afresh."""
    families = {}
    monkeypatch.setattr(partitions, "_core_families", families)
    return families


def test_a_memoised_family_still_obeys_the_budget(no_families):
    family = enumerate_sss_cores(4)
    assert no_families == {4: family}
    assert enumerate_sss_cores(4) is family
    assert enumerate_sss_cores(4, budget=9) is family
    with pytest.raises(BudgetExceeded):
        enumerate_sss_cores(4, budget=8)


def test_a_walk_over_budget_memoises_nothing(no_families):
    with pytest.raises(BudgetExceeded):
        enumerate_sss_cores(4, budget=8)
    assert no_families == {}
    assert enumerate_sss_cores(4).count == 9
