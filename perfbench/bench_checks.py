"""Output checks: pinned digests and invariants of every simulated result.

Simulated statistics are outputs, not performance metrics: a change
that only speeds the simulator up must leave every one of them
identical.  Each result is reduced to its result-cache JSON form (IPCs
by exact ``repr``, misses, accesses, traffic, inclusion victims, MPKI)
and hashed; at the default seed the hashes are compared with
``pins.json``.  Invariants are checked on every seed.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Set

from repro.orchestrate import RunSummary
from repro.service.schemas import summary_to_dict

PINS_PATH = Path(__file__).with_name("pins.json")

#: the seed whose digests are pinned.
DEFAULT_SEED = 1

#: modes that never back-invalidate, so never create inclusion victims.
NON_INCLUSIVE_MODES = ("non_inclusive", "exclusive")


def canonical(summary: RunSummary) -> str:
    """The summary's simulated output as canonical JSON text."""
    return json.dumps(summary_to_dict(summary), sort_keys=True)


def digest(summary: RunSummary) -> str:
    return hashlib.sha256(canonical(summary).encode()).hexdigest()[:16]


def pin_slot(workload: str, seed: int) -> str:
    """The ``pins.json`` entry a run's digests belong to.

    Job sizes do not depend on the run length and a shorter run
    simulates a prefix of a longer one's jobs, so one slot per seed
    serves every ``--seconds``.
    """
    return f"{workload} seed={seed}"


def load_pins() -> Dict[str, Dict[str, str]]:
    if not PINS_PATH.exists():
        return {}
    return json.loads(PINS_PATH.read_text())


def invariant_errors(summary: RunSummary, quota: int) -> List[str]:
    """Invariants every result must satisfy, on any seed."""
    errors = []
    if summary.mode in NON_INCLUSIVE_MODES and summary.inclusion_victims != 0:
        errors.append(
            f"{summary.mode} run has {summary.inclusion_victims} inclusion victims"
        )
    if summary.llc_misses > summary.llc_accesses:
        errors.append(
            f"llc_misses {summary.llc_misses} > llc_accesses {summary.llc_accesses}"
        )
    short = [count for count in summary.instructions if count < quota]
    if len(summary.instructions) != len(summary.apps) or short:
        errors.append(
            f"cores retired {summary.instructions}, quota is {quota} each"
        )
    return errors


class OutputCheck:
    """Collects per-job verdicts; a job failing any check is one failure."""

    def __init__(self, pinned: Optional[Mapping[str, str]] = None) -> None:
        #: job key -> pinned digest (empty when the seed is not pinned).
        self.pinned: Mapping[str, str] = pinned or {}
        #: job key -> digest of every result checked.
        self.digests: Dict[str, str] = {}
        #: job key -> reasons it failed.
        self.failures: Dict[str, List[str]] = {}
        #: keys whose digest was compared with a pin.
        self.pinned_checked: Set[str] = set()

    def fail(self, key: str, reason: str) -> None:
        self.failures.setdefault(key, []).append(reason)

    def check(self, key: str, summary: RunSummary, quota: int) -> None:
        for error in invariant_errors(summary, quota):
            self.fail(key, error)
        value = digest(summary)
        self.digests[key] = value
        expected = self.pinned.get(key)
        if expected is not None:
            self.pinned_checked.add(key)
            if expected != value:
                self.fail(key, f"digest {value} != pinned {expected}")

    def check_all(self, keyed: Iterable, quota: int) -> None:
        for key, summary in keyed:
            self.check(key, summary, quota)

    @property
    def failed(self) -> int:
        return len(self.failures)

    def describe(self, limit: int = 5) -> List[str]:
        return [
            f"{key[:12]}: {'; '.join(reasons)}"
            for key, reasons in list(self.failures.items())[:limit]
        ]
