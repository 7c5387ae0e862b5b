"""Workload inputs, made by the benchmark itself from ``--seed``.

Branch-and-Bound cost depends on the instance by orders of magnitude: two
random 14x5 instances can take 3 ms and 5 s to a proof.  A run-to-run
comparison is only steady when every run solves the same instances, so the
instance sets below are fixed and the seed sets the order in which they are
solved (and, for the service, the arrival order of the stream and the
contents of its small brute-force-checked instances).

Instances are Taillard-style: processing times drawn machine by machine
from Taillard's portable Lehmer generator (``x <- 16807 x mod 2^31 - 1``),
uniform in ``[1, 99]``.  The generator is re-implemented here so that the
inputs, like the checks, do not come from the program under test.
"""

from __future__ import annotations

import random

_LEHMER_M = 2**31 - 1


def taillard_matrix(n_jobs: int, n_machines: int, time_seed: int,
                    low: int = 1, high: int = 99) -> list[list[int]]:
    """Jobs x machines matrix filled machine-major by Taillard's ``unif(low, high)``."""
    x = time_seed
    pt = [[0] * n_machines for _ in range(n_jobs)]
    for k in range(n_machines):
        for j in range(n_jobs):
            x = 16807 * x % _LEHMER_M
            pt[j][k] = low + int(x / _LEHMER_M * (high - low + 1))
    return pt


#: ``proof-serial`` ladder: (name, jobs, machines, time seed).  Each rung
#: reaches a proven optimum in 0.1-1.0 s on a 2-CPU x86 host (README).
PROOF_LADDER: tuple[tuple[str, int, int, int], ...] = (
    ("p12x10", 12, 10, 95843657),
    ("p13x5", 13, 5, 103374626),
    ("p13x8", 13, 8, 103612196),
    ("p14x8a", 14, 8, 111515358),
    ("p14x8b", 14, 8, 111539115),
    ("p15x8a", 15, 8, 119434358),
    ("p15x8b", 15, 8, 119442277),
    ("p15x10a", 15, 10, 119608576),
    ("p15x10b", 15, 10, 119616495),
)

#: ``deep-gpu-m20``: (name, time seed, node budget).  The budget caps nodes
#: explored (branched + pruned); the batch engine stops at the first pool
#: boundary past it, so each solve's tree is fixed.
DEEP_M20: tuple[tuple[str, int, int], ...] = (
    ("d20x20a", 13344, 40_000),
    ("d20x20b", 14343, 40_000),
    ("d20x20c", 16341, 30_000),
)

#: ``service-wire``: three 7x4 instances with processing times in
#: [5e8, 1e9], so every makespan exceeds 2^31.  Fixed, not seeded: they
#: are the known int32-wrap fault of the block layout (ROADMAP "Fix first").
BIG_7X4_SEEDS: tuple[int, ...] = (777, 778, 779)
INT32_FAULT = "int32-wrap: the block layout's int32 columns overflow past 2^31"

#: ``service-wire`` Taillard-spec pool, hottest first; the request count of
#: rank r is round(46 / r), a Zipf-like skew of 190 requests.  Specs whose
#: sequential solve takes more than 0.3 s are left out of the pool.
SERVICE_SPECS: tuple[tuple[int, int, int], ...] = (
    (10, 5, 3), (11, 8, 2), (10, 10, 3), (12, 8, 3), (11, 5, 1),
    (10, 8, 1), (12, 10, 4), (11, 10, 2), (10, 5, 5), (12, 5, 1),
    (11, 8, 4), (10, 10, 1), (12, 8, 2), (11, 5, 6), (10, 8, 4),
    (12, 10, 3), (11, 10, 3), (10, 5, 2), (12, 5, 6), (11, 8, 1),
    (10, 10, 5), (12, 8, 4), (11, 5, 8), (10, 8, 3), (12, 10, 6),
    (11, 10, 6), (10, 5, 4), (12, 5, 5), (11, 8, 7), (10, 10, 7),
    (12, 8, 7), (11, 5, 2), (10, 8, 6),
)
N_SMALL_EXPLICIT = 4


def proof_order(seed: int) -> list[tuple[str, list[list[int]]]]:
    """The proof ladder as (name, matrix), in the seed's solving order."""
    rungs = [(name, taillard_matrix(n, m, s)) for name, n, m, s in PROOF_LADDER]
    random.Random(seed).shuffle(rungs)
    return rungs


def deep_order(seed: int) -> list[tuple[str, list[list[int]], int]]:
    """The m=20 instances as (name, matrix, node budget), in the seed's order."""
    items = [(name, taillard_matrix(20, 20, s), budget) for name, s, budget in DEEP_M20]
    random.Random(seed).shuffle(items)
    return items


def warmup_matrix() -> list[list[int]]:
    """A small untimed instance that touches every code path once."""
    return taillard_matrix(10, 5, 4242)


def service_stream(seed: int) -> list[dict]:
    """One round of the service stream, in the seed's arrival order.

    Each item is ``{"name", "instance"}`` where ``instance`` is the wire
    form of the request's instance spec; explicit items also carry
    ``"matrix"``, and the int32-wrap items carry ``"fault"``.
    """
    rng = random.Random(seed)
    items: list[dict] = []
    for rank, (n, m, index) in enumerate(SERVICE_SPECS, start=1):
        spec = {"kind": "taillard", "jobs": n, "machines": m, "index": index}
        for _ in range(round(46 / rank)):
            items.append({"name": f"ta{n}x{m}#{index}", "instance": spec})
    for i in range(N_SMALL_EXPLICIT):
        matrix = taillard_matrix(8, 5, rng.randrange(1, _LEHMER_M))
        items.append(_explicit(f"small8x5-{i}", matrix))
    for i, time_seed in enumerate(BIG_7X4_SEEDS):
        matrix = taillard_matrix(7, 4, time_seed, 500_000_000, 1_000_000_000)
        item = _explicit(f"big7x4-{i}", matrix)
        item["fault"] = INT32_FAULT
        items.append(item)
    rng.shuffle(items)
    return items


def _explicit(name: str, matrix: list[list[int]]) -> dict:
    return {
        "name": name,
        "matrix": matrix,
        "instance": {"kind": "explicit", "processing_times": matrix, "name": name},
    }
