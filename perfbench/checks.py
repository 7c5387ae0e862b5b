"""Correctness checks computed apart from the program under test.

Nothing here imports ``repro``: every reference value is recomputed from
the processing-time matrix with plain Python integers, which never wrap.
Each check returns a list of problems; an empty list means the answer
passed.
"""

from __future__ import annotations


def makespan(pt: list[list[int]], order: list[int]) -> int:
    """Permutation flow-shop makespan by the completion-time recurrence."""
    done = [0] * len(pt[0])
    for j in order:
        row = pt[j]
        t = 0
        for k, p in enumerate(row):
            t = max(t, done[k]) + p
            done[k] = t
    return done[-1]


def machine_lower_bound(pt: list[list[int]]) -> int:
    """max over machines of (least head + machine load + least tail), and
    the longest job: a bound no schedule can beat."""
    n_machines = len(pt[0])
    best = max(sum(row) for row in pt)
    for k in range(n_machines):
        head = min(sum(row[:k]) for row in pt)
        tail = min(sum(row[k + 1:]) for row in pt)
        best = max(best, head + sum(row[k] for row in pt) + tail)
    return best


def trivial_upper_bound(pt: list[list[int]]) -> int:
    """Sum of every processing time: no permutation's makespan exceeds it."""
    return sum(sum(row) for row in pt)


def brute_force_optimum(pt: list[list[int]]) -> int:
    """Exact optimum by enumerating every permutation (prefix-shared DFS)."""
    n = len(pt)
    n_machines = len(pt[0])
    best = trivial_upper_bound(pt)

    def extend(done: list[int], used: int, depth: int) -> None:
        nonlocal best
        for j in range(n):
            if used >> j & 1:
                continue
            row = pt[j]
            nxt = done[:]
            t = 0
            for k in range(n_machines):
                t = max(t, nxt[k]) + row[k]
                nxt[k] = t
            if depth + 1 == n:
                best = min(best, t)
            else:
                extend(nxt, used | 1 << j, depth + 1)

    extend([0] * n_machines, 0, 0)
    return best


def check_answer(pt: list[list[int]], reported: int, order: list[int]) -> list[str]:
    """The order is a permutation whose recomputed makespan is the reported
    one, and that value lies between the independent bounds."""
    problems = []
    if sorted(order) != list(range(len(pt))):
        return [f"order {order} is not a permutation of {len(pt)} jobs"]
    actual = makespan(pt, order)
    if actual != reported:
        problems.append(f"reported makespan {reported} but the order's makespan is {actual}")
    low, high = machine_lower_bound(pt), trivial_upper_bound(pt)
    if not low <= reported <= high:
        problems.append(f"makespan {reported} outside [{low}, {high}]")
    return problems


def check_conservation(bounded: int, branched: int, pruned: int, leaves: int,
                       pending: int) -> list[str]:
    """Every bounded node is branched, pruned, a leaf, or still pending."""
    if bounded == branched + pruned + leaves + pending:
        return []
    return [
        f"nodes_bounded {bounded} != branched {branched} + pruned {pruned}"
        f" + leaves {leaves} + pending {pending}"
    ]
