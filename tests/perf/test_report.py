"""Text rendering of host-performance digests."""

from repro.perf import format_host_report, format_phase_report, format_rate


class TestFormatRate:
    def test_millions(self):
        assert format_rate(2_345_678) == "2.35M"

    def test_thousands(self):
        assert format_rate(45_600) == "46k"

    def test_small(self):
        assert format_rate(789.4) == "789"


class TestFormatPhaseReport:
    def test_sorted_by_descending_seconds(self):
        text = format_phase_report(
            {
                "small": {"s": 1.0, "count": 10},
                "big": {"s": 9.0, "count": 2},
            }
        )
        lines = text.splitlines()
        assert "big" in lines[0]
        assert "90.0%" in lines[0]
        assert "small" in lines[1]

    def test_empty_report(self):
        assert "no phases" in format_phase_report({})


class TestFormatHostReport:
    def test_includes_throughput_and_utilisation(self):
        text = format_host_report(
            {
                "jobs": 3,
                "instructions": 120_000,
                "accesses": 150_000,
                "busy_s": 2.0,
                "instructions_per_s": 60_000.0,
                "accesses_per_s": 75_000.0,
                "wall_s": 1.0,
                "utilisation": 0.667,
            },
            phases={"sim_loop": {"s": 1.5, "count": 3}},
        )
        assert "jobs=3" in text
        assert "60k instr/s" in text
        assert "pool utilisation: 67%" in text
        assert "sim_loop" in text

    def test_stripped_share(self):
        text = format_host_report(
            {"jobs": 2, "stripped_frac": 0.834, "l1_filter_s": 0.5}
        )
        assert "l1 filter: 83.4% of records stripped" in text

    def test_minimal_aggregate(self):
        text = format_host_report({"jobs": 0})
        assert "jobs=0" in text
        assert "utilisation" not in text
