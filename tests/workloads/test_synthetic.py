"""Tests for the synthetic trace generators."""

import itertools
import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

from repro.access import AccessType
from repro.errors import TraceError
from repro.workloads import take
from repro.workloads.synthetic import (
    MixtureProfile,
    RegionSpec,
    interleaved,
    looping_trace,
    mixture_chunks,
    mixture_trace,
    random_trace,
    strided_trace,
)


def simple_profile(**kwargs) -> MixtureProfile:
    defaults = dict(
        code_lines=16,
        regions=(RegionSpec(lines=32, weight=1.0),),
    )
    defaults.update(kwargs)
    return MixtureProfile(**defaults)


class TestSimpleGenerators:
    def test_looping_trace_wraps(self):
        records = take(looping_trace(4, line_size=64), 8)
        addresses = [r.address for r in records]
        assert addresses == [0, 64, 128, 192, 0, 64, 128, 192]

    def test_strided_trace_finite(self):
        records = list(strided_trace(128, count=3))
        assert [r.address for r in records] == [0, 128, 256]

    def test_strided_trace_rejects_zero_stride(self):
        with pytest.raises(TraceError):
            next(strided_trace(0))

    def test_random_trace_deterministic(self):
        a = take(random_trace(64, seed=9), 50)
        b = take(random_trace(64, seed=9), 50)
        assert a == b

    def test_random_trace_stays_in_region(self):
        for record in take(random_trace(16, seed=1, base_address=1000), 100):
            assert 1000 <= record.address < 1000 + 16 * 64

    def test_random_trace_write_fraction(self):
        records = take(random_trace(16, seed=1, write_fraction=1.0), 20)
        assert all(r.kind is AccessType.STORE for r in records)

    def test_interleaved_draws_from_all(self):
        a = looping_trace(2)
        b = looping_trace(2, base_address=1 << 20)
        merged = take(interleaved([a, b], seed=3), 200)
        bases = {r.address >= (1 << 20) for r in merged}
        assert bases == {True, False}


class TestMixtureValidation:
    def test_empty_regions_rejected(self):
        with pytest.raises(TraceError):
            MixtureProfile(code_lines=4, regions=())

    def test_zero_weight_sum_rejected(self):
        with pytest.raises(TraceError):
            MixtureProfile(
                code_lines=4, regions=(RegionSpec(lines=4, weight=0.0),)
            )

    def test_negative_burst_rejected(self):
        with pytest.raises(TraceError):
            RegionSpec(lines=4, weight=1.0, burst=0)


# The id names the generator engine (numpy batches, the only one).
@pytest.mark.parametrize("generate", [mixture_trace], ids=["numpy"])
class TestMixtureStatistics:
    def test_deterministic_per_seed(self, generate):
        profile = simple_profile()
        a = take(generate(profile, seed=5), 300)
        b = take(generate(profile, seed=5), 300)
        assert a == b

    def test_different_seeds_differ(self, generate):
        profile = simple_profile()
        a = take(generate(profile, seed=1), 300)
        b = take(generate(profile, seed=2), 300)
        assert a != b

    def test_ifetch_fraction_close_to_target(self, generate):
        profile = simple_profile()
        records = take(generate(profile, seed=7), 20_000)
        ifetches = sum(1 for r in records if r.kind is AccessType.IFETCH)
        expected = profile.ifetch_per_instruction / (
            profile.ifetch_per_instruction + profile.data_per_instruction
        )
        assert ifetches / len(records) == pytest.approx(expected, rel=0.15)

    def test_instruction_rate_close_to_target(self, generate):
        profile = simple_profile()
        records = take(generate(profile, seed=7), 20_000)
        instructions = sum(r.gap + 1 for r in records)
        per_record = 1.0 / (
            profile.ifetch_per_instruction + profile.data_per_instruction
        )
        assert instructions / len(records) == pytest.approx(per_record, rel=0.15)

    def test_write_fraction(self, generate):
        profile = simple_profile(write_fraction=0.5)
        records = take(generate(profile, seed=7), 20_000)
        data = [r for r in records if r.kind is not AccessType.IFETCH]
        stores = sum(1 for r in data if r.kind is AccessType.STORE)
        assert stores / len(data) == pytest.approx(0.5, rel=0.1)

    def test_addresses_stay_in_declared_regions(self, generate):
        from repro.workloads.synthetic import CODE_BASE, DATA_BASE

        profile = simple_profile()
        records = take(generate(profile, seed=7), 5_000)
        for record in records:
            if record.kind is AccessType.IFETCH:
                assert CODE_BASE <= record.address < CODE_BASE + 16 * 64
            else:
                assert DATA_BASE <= record.address < DATA_BASE + 32 * 64

    def test_sequential_region_streams(self, generate):
        profile = simple_profile(
            regions=(RegionSpec(lines=1000, weight=1.0, sequential=True),),
        )
        records = take(generate(profile, seed=7), 500)
        data_addresses = [
            r.address for r in records if r.kind is not AccessType.IFETCH
        ]
        assert data_addresses == sorted(data_addresses)

    def test_burst_repeats_lines(self, generate):
        profile = simple_profile(
            regions=(RegionSpec(lines=10_000, weight=1.0, burst=3),),
        )
        records = take(generate(profile, seed=7), 3_000)
        data = [r.address for r in records if r.kind is not AccessType.IFETCH]
        # In a 10k-line region, repeats only happen because of bursts;
        # each visited line should appear ~3 times consecutively.
        runs = [len(list(g)) for _, g in itertools.groupby(data)]
        assert sum(runs) / len(runs) == pytest.approx(3.0, rel=0.2)

    def test_base_address_offset(self, generate):
        profile = simple_profile()
        records = take(
            generate(profile, seed=7, base_address=1 << 41),
            100,
        )
        assert all(r.address >= (1 << 41) for r in records)


#: imports the workload package with numpy hidden; exit 3 on ImportError.
NO_NUMPY_SNIPPET = """
import sys
sys.modules["numpy"] = None  # makes every ``import numpy`` raise ImportError
try:
    import repro.workloads
except ImportError as exc:
    print(exc)
    sys.exit(3)
"""


def test_import_without_numpy_fails_loudly():
    """numpy is a runtime dependency: without it the workload package
    refuses to import instead of simulating on another engine whose
    streams (and so results under the same job key) would differ."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[2] / "src")
    out = subprocess.run(
        [sys.executable, "-c", NO_NUMPY_SNIPPET],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode == 3, out.stdout + out.stderr
    assert "numpy" in out.stdout


@pytest.mark.parametrize("burst", [1, 3])
def test_suspended_generator_pins_no_yielded_chunk(burst):
    """Once the consumer drops a chunk its arrays die, though the
    generator stays suspended (a stored stream keeps it alive)."""
    chunks = mixture_chunks(
        simple_profile(regions=(RegionSpec(lines=32, weight=1.0, burst=burst),)),
        7,
        0,
    )
    for _ in range(2):
        gaps, kind_codes, addresses = next(chunks)
        refs = [weakref.ref(column) for column in (gaps, kind_codes, addresses)]
        del gaps, kind_codes, addresses
        assert [ref() for ref in refs] == [None, None, None]
