"""Calibration tests: the 15 synthetic apps land in their Table I bands.

These are the tests that pin the reproduction to the paper: every
benchmark must belong to its published category when run in isolation
on the baseline machine.  Bands are deliberately loose — the synthetic
traces approximate Table I's *shape*, not its absolute values.

Runs use a heavily scaled machine (1/16) and short windows so the
whole module stays in tens of seconds.
"""

import pytest

from repro.config import MB, SimConfig, baseline_hierarchy
from repro.cpu import CMPSimulator
from repro.workloads import (
    CATEGORY_CCF,
    CATEGORY_LLCF,
    CATEGORY_LLCT,
    SPEC_APPS,
    WorkloadMix,
    app_names,
    app_trace,
    category_of,
)

SCALE = 0.0625
QUOTA = 120_000
WARMUP = 80_000


@pytest.fixture(scope="module")
def isolation_mpki():
    """L1/L2/LLC MPKI for every app in isolation (computed once)."""
    reference = baseline_hierarchy(2, scale=SCALE)
    results = {}
    for name in app_names():
        config = SimConfig(
            hierarchy=baseline_hierarchy(1, llc_bytes=2 * MB, scale=SCALE),
            instruction_quota=QUOTA,
            warmup_instructions=WARMUP,
        )
        trace = app_trace(name, reference=reference)
        result = CMPSimulator(config, [trace]).run()
        core = result.cores[0]
        results[name] = {
            "l1": core.mpki("l1"),
            "l2": core.mpki("l2"),
            "llc": core.mpki("llc"),
            "ipc": core.ipc,
        }
    return results


class TestRoster:
    def test_fifteen_apps(self):
        assert len(SPEC_APPS) == 15

    def test_five_per_category(self):
        from collections import Counter

        counts = Counter(profile.category for profile in SPEC_APPS.values())
        assert counts == {
            CATEGORY_CCF: 5,
            CATEGORY_LLCF: 5,
            CATEGORY_LLCT: 5,
        }

    def test_paper_roster_names(self):
        expected = {
            "ast", "bzi", "cal", "dea", "gob", "h26", "hmm", "lib",
            "mcf", "per", "pov", "sje", "sph", "wrf", "xal",
        }
        assert set(SPEC_APPS) == expected

    def test_paper_categories(self):
        # Straight from Table I's classification discussion (S IV.B).
        assert category_of("dea") == CATEGORY_CCF
        assert category_of("h26") == CATEGORY_CCF
        assert category_of("per") == CATEGORY_CCF
        assert category_of("pov") == CATEGORY_CCF
        assert category_of("sje") == CATEGORY_CCF
        assert category_of("ast") == CATEGORY_LLCF
        assert category_of("bzi") == CATEGORY_LLCF
        assert category_of("cal") == CATEGORY_LLCF
        assert category_of("hmm") == CATEGORY_LLCF
        assert category_of("xal") == CATEGORY_LLCF
        assert category_of("gob") == CATEGORY_LLCT
        assert category_of("lib") == CATEGORY_LLCT
        assert category_of("mcf") == CATEGORY_LLCT
        assert category_of("sph") == CATEGORY_LLCT
        assert category_of("wrf") == CATEGORY_LLCT


class TestCategoryBands:
    """CCF: working set caught by the core caches.  LLCF: caught by the
    LLC.  LLCT: not caught at all."""

    @pytest.mark.parametrize(
        "name", [n for n, p in SPEC_APPS.items() if p.category == CATEGORY_CCF]
    )
    def test_ccf_low_l2_mpki(self, isolation_mpki, name):
        assert isolation_mpki[name]["l2"] < 3.0

    @pytest.mark.parametrize(
        "name", [n for n, p in SPEC_APPS.items() if p.category == CATEGORY_CCF]
    )
    def test_ccf_negligible_llc_mpki(self, isolation_mpki, name):
        assert isolation_mpki[name]["llc"] < 2.0

    @pytest.mark.parametrize(
        "name", [n for n, p in SPEC_APPS.items() if p.category == CATEGORY_LLCF]
    )
    def test_llcf_l2_misses_but_llc_catches(self, isolation_mpki, name):
        mpki = isolation_mpki[name]
        assert mpki["l2"] > 3.0
        assert mpki["llc"] < 0.8 * mpki["l2"]

    @pytest.mark.parametrize(
        "name", [n for n, p in SPEC_APPS.items() if p.category == CATEGORY_LLCT]
    )
    def test_llct_llc_does_not_help(self, isolation_mpki, name):
        mpki = isolation_mpki[name]
        assert mpki["llc"] > 4.0
        assert mpki["llc"] > 0.6 * mpki["l2"]

    def test_lib_is_pure_stream(self, isolation_mpki):
        """libquantum: 'no locality in any of the caches' (Section V.A)."""
        mpki = isolation_mpki["lib"]
        assert mpki["l1"] == pytest.approx(mpki["llc"], rel=0.1)

    def test_sje_has_good_l1_locality(self, isolation_mpki):
        """sjeng: 'good L1 cache locality' (Section V.A)."""
        assert isolation_mpki["sje"]["l1"] < 3.0

    def test_thrashers_slower_than_ccf(self, isolation_mpki):
        ccf_ipc = min(
            isolation_mpki[n]["ipc"]
            for n, p in SPEC_APPS.items()
            if p.category == CATEGORY_CCF
        )
        llct_ipc = max(
            isolation_mpki[n]["ipc"]
            for n, p in SPEC_APPS.items()
            if p.category == CATEGORY_LLCT
        )
        assert ccf_ipc > llct_ipc


class TestTraceConstruction:
    def test_traces_are_infinite_enough(self):
        trace = app_trace("lib")
        for _ in range(10_000):
            next(trace)

    def test_per_core_address_disjointness(self):
        mix = WorkloadMix("T", ("lib", "lib"))
        traces = mix.traces()
        a = {next(traces[0])[2] >> 40 for _ in range(200)}
        b = {next(traces[1])[2] >> 40 for _ in range(200)}
        assert a.isdisjoint(b)

    def test_same_app_different_cores_not_lockstep(self):
        mix = WorkloadMix("T", ("mcf", "mcf"))
        traces = mix.traces()
        offsets_a = [next(traces[0])[2] & 0xFFFFFF for _ in range(100)]
        offsets_b = [next(traces[1])[2] & 0xFFFFFF for _ in range(100)]
        assert offsets_a != offsets_b

    def test_working_sets_scale_with_reference(self):
        small = baseline_hierarchy(2, scale=0.0625)
        large = baseline_hierarchy(2, scale=1.0)
        profile = SPEC_APPS["bzi"]
        small_mix = profile.build_mixture(small)
        large_mix = profile.build_mixture(large)
        assert large_mix.code_lines == pytest.approx(
            16 * small_mix.code_lines, rel=0.1
        )
        assert large_mix.regions[1].lines == pytest.approx(
            16 * small_mix.regions[1].lines, rel=0.1
        )
