"""Seeded job sets of the three benchmark workloads.

Only the generated requests reach the program: each function turns a
seed (and, for the in-process sweeps, the run length) into the run
requests ``Runner.run_many`` accepts, which the service client turns
into the job specs ``POST /v1/sweeps`` accepts.  The same seed always
yields the same requests; job sizes are fixed per workload, and the
run length only sets how many jobs a sweep simulates.
"""

from __future__ import annotations

import random
from typing import Dict, Iterator, List, Tuple

from repro.config import MB
from repro.workloads import WorkloadMix, all_two_core_mixes
from repro.workloads.categories import CATEGORY_LLCF, CATEGORY_LLCT
from repro.workloads.spec import SPEC_APPS

#: the experiments' default 1/16-scale machine, used by every workload.
SCALE = 0.0625

#: Fig. 9's policy grid at the default 1:4 LLC.
FIG9_POLICIES: Tuple[Tuple[str, str], ...] = (
    ("inclusive", "none"),
    ("inclusive", "tlh-l1"),
    ("inclusive", "eci"),
    ("inclusive", "qbs"),
    ("non_inclusive", "none"),
    ("exclusive", "none"),
)

#: policies assigned round-robin to the ``llc_pressure`` pairs.
PRESSURE_POLICIES: Tuple[Tuple[str, str], ...] = (
    ("inclusive", "none"),
    ("inclusive", "eci"),
    ("inclusive", "qbs"),
    ("inclusive", "tlh-l1"),
    ("non_inclusive", "none"),
)

#: the paper's 1:2 core-cache:LLC ratio (full-scale bytes, scaled with
#: the machine), as ``repro.experiments.figures`` spells it.
PRESSURE_LLC_BYTES = 1 * MB

#: per-core (quota, warm-up) instructions of each workload's jobs, each
#: taken from a real caller so that job size never depends on the run
#: length:
#:
#: * ``policy_sweep`` and ``service_mix``: CI's reduced-scale figure
#:   sweep (``REPRO_QUOTA=20000 REPRO_WARMUP=5000 ... figure6``); CI's
#:   HTTP smoke submits the same 20000 quota to the service.
#: * ``llc_pressure``: the ``ExperimentSettings`` defaults with which
#:   ``python -m repro.experiments`` produces the paper's figures; the
#:   LLC fills, so back-invalidates, ECI and QBS all act.
JOB_SIZE = {
    "policy_sweep": (20_000, 5_000),
    "llc_pressure": (300_000, 150_000),
    "service_mix": (20_000, 5_000),
}

#: ``--seconds`` per stratum of ``policy_sweep``: one pair from each of
#: the six category combinations x the six policies is 36 jobs, about
#: 4 s cold on a 2-CPU host.  The run length sets the stratum count, up
#: to the five strata of one balanced block.
SECONDS_PER_STRATUM = 4

#: the one draw of ``llc_pressure``'s pairs and policies; a run's seed
#: only orders them (see :func:`llc_pressure`).
PRESSURE_DRAW = 1

#: ``--seconds`` per ``llc_pressure`` pair (2-2.5 s cold each on a
#: 2-CPU host): from 20 s all ten apps run on both cores, so every seed
#: simulates the same traces and only their pairing changes.
SECONDS_PER_PRESSURE_PAIR = 2

#: each ``service_mix`` client sends one fresh job in every block of
#: this many requests; the rest repeat completed keys.  No caller's
#: traffic has been recorded, so the share is unverified.  A hit takes
#: about 1/70 of a fresh job's round trip, so at 3 in 4 a 20 s run gets
#: several hundred hits (ten or more beyond their p95) while the fresh
#: jobs still keep the one pool worker busy.
SERVICE_BLOCK = 4

Request = Dict[str, object]


def policy_sweep(seed: int, seconds: int) -> List[Request]:
    """Seed-drawn pairs x the Fig. 9 grid, stratum by stratum.

    The pairs form one balanced block of 30 of the 105: for each
    category a 5-cycle of its five apps (five pairs, every app in two)
    and for each two categories a matching of their apps (five pairs,
    every app in one), all drawn by the seed.  Every app then runs in
    four pairs, and every category combination has five, on every seed:
    seeds change which apps share a pair, not how much of each app a run
    simulates, so the sweep's cost does not swing with the draw.  With
    six policies the block is 180 jobs, enough for a p95 with nine
    beyond it.  Stratum ``i`` holds the ``i``-th pair of each of the six
    parts, one per category combination, so a shorter run (a prefix of
    strata) keeps the combinations' shares.  A pair's six policies are
    adjacent.
    """
    rng = random.Random(seed)
    canonical = {frozenset(mix.apps): mix for mix in all_two_core_mixes()}
    by_category = _apps_by_category()
    tags = sorted(by_category)
    parts: List[List[Tuple[str, str]]] = []
    for index, tag in enumerate(tags):
        ring = rng.sample(by_category[tag], len(by_category[tag]))
        parts.append([(ring[k], ring[(k + 1) % len(ring)]) for k in range(len(ring))])
        for other in tags[index + 1:]:
            partners = rng.sample(by_category[other], len(by_category[other]))
            parts.append(list(zip(by_category[tag], partners)))
    for part in parts:
        rng.shuffle(part)
    strata = min(max(1, seconds // SECONDS_PER_STRATUM), min(map(len, parts)))
    return [
        {"mix": canonical[frozenset(part[stratum])], "mode": mode, "tla": tla}
        for stratum in range(strata)
        for part in parts
        for mode, tla in FIG9_POLICIES
    ]


def llc_pressure(seed: int, seconds: int) -> List[Request]:
    """The ten LLCF/LLCT apps in shuffled pairs at 1:2, in seeded order.

    App ``i`` of the shuffled list runs on core 0 with app ``i + k`` on
    core 1, so every (app, core) trace is used at most once and no two
    jobs share a trace.  The shuffle, the shift ``k`` and so the pairs
    and their round-robin policies are one fixed draw
    (:data:`PRESSURE_DRAW`); the seed sets the order the jobs run in,
    and with it the replays between them.  Ten jobs are too few to
    average over the draw: the p95 is the slowest job, nearly always a
    tlh-l1 one, and which apps drew tlh-l1 moved it by up to 40% from
    seed to seed.  A run shorter than 20 s takes the leading jobs of its
    order.
    """
    rng = random.Random(PRESSURE_DRAW)
    apps = sorted(
        name
        for name, profile in SPEC_APPS.items()
        if profile.category in (CATEGORY_LLCF, CATEGORY_LLCT)
    )
    rng.shuffle(apps)
    shift = rng.randrange(1, len(apps))
    requests: List[Request] = []
    for index, app in enumerate(apps):
        mode, tla = PRESSURE_POLICIES[index % len(PRESSURE_POLICIES)]
        mix = WorkloadMix(f"LLCP_{index:02d}", (app, apps[(index + shift) % len(apps)]))
        requests.append(
            {"mix": mix, "mode": mode, "tla": tla, "llc_bytes": PRESSURE_LLC_BYTES}
        )
    count = min(len(apps), max(1, int(seconds / SECONDS_PER_PRESSURE_PAIR)))
    return random.Random(seed).sample(requests, len(requests))[:count]


def service_fresh(seed: int, clients: int) -> List[List[Request]]:
    """Each client's sequence of distinct fresh requests.

    The 105 pairs are split into seven strata of 15 in which every app
    runs in exactly two pairs (:func:`balanced_strata`); the strata, in
    seeded order, are walked six times, and the ``i``-th pair of a walk
    gets policy ``i + walk`` of the Fig. 9 grid, so every pair meets
    every policy once and no two requests share a key: a fresh request
    is never served from the cache.  Every 15 consecutive requests
    simulate each app twice, so the fresh jobs a run completes cost the
    same whatever the seed.  Requests are dealt out round-robin.
    """
    rng = random.Random(seed)
    canonical = {frozenset(mix.apps): mix for mix in all_two_core_mixes()}
    strata = balanced_strata(rng)
    rng.shuffle(strata)
    for stratum in strata:
        rng.shuffle(stratum)
    pairs = [pair for stratum in strata for pair in stratum]
    sequence = [
        {"mix": canonical[frozenset(pair)], "mode": mode, "tla": tla}
        for walk in range(len(FIG9_POLICIES))
        for index, pair in enumerate(pairs)
        for mode, tla in [FIG9_POLICIES[(index + walk) % len(FIG9_POLICIES)]]
    ]
    return [sequence[client::clients] for client in range(clients)]


def balanced_strata(rng: random.Random) -> List[List[Tuple[str, str]]]:
    """All 105 pairs as seven strata of 15, each holding every app twice.

    Within a category of five apps (in seeded order), the steps-1 and
    steps-2 rings are two 5-cycles that together hold its ten pairs;
    across two categories, shifting one side by 0..4 gives five
    matchings that together hold their 25 pairs.  A stratum is one ring
    of every category, or one shift of every two categories.
    """
    by_category = _apps_by_category()
    ordered = {tag: rng.sample(apps, len(apps)) for tag, apps in by_category.items()}
    tags = sorted(ordered)
    strata = [
        [(ring[i], ring[(i + step) % len(ring)])
         for ring in (ordered[tag] for tag in tags)
         for i in range(len(ring))]
        for step in (1, 2)
    ]
    strata += [
        [(ordered[a][i], ordered[b][(i + shift) % len(ordered[b])])
         for index, a in enumerate(tags)
         for b in tags[index + 1:]
         for i in range(len(ordered[a]))]
        for shift in range(5)
    ]
    return strata


def _apps_by_category() -> Dict[str, List[str]]:
    by_category: Dict[str, List[str]] = {}
    for name, profile in sorted(SPEC_APPS.items()):
        by_category.setdefault(profile.category, []).append(name)
    return by_category


def client_rng(seed: int, client: int) -> random.Random:
    """The RNG deciding one client's hit/fresh choices."""
    return random.Random(seed * 1_000_003 + client)


def client_kinds(rng: random.Random) -> Iterator[str]:
    """A client's request kinds: exactly one ``"fresh"`` per block of
    :data:`SERVICE_BLOCK`, at a place in the block the client's RNG draws,
    and ``"hit"`` elsewhere.

    The share is fixed, not drawn per request: fresh jobs take nearly all
    of the loop's time, so a drawn share would set the run's pace by
    the draw (about a tenth, run to run, at 3 in 4 over a 20 s run).
    """
    while True:
        fresh_at = rng.randrange(SERVICE_BLOCK)
        for position in range(SERVICE_BLOCK):
            yield "fresh" if position == fresh_at else "hit"
