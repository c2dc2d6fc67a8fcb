"""Workload substrate: traces, synthetic generators, SPEC-like profiles.

The paper drives its simulator with PinPoints traces of 15 SPEC
CPU2006 benchmarks chosen to cover three categories (Section IV.B):

* **CCF** — core-cache fitting: working set fits in L1/L2;
* **LLCF** — LLC fitting: working set fits in the LLC;
* **LLCT** — LLC thrashing: working set exceeds the LLC.

We do not have SPEC traces, so :mod:`repro.workloads.spec` provides a
deterministic synthetic generator per benchmark, calibrated to the
same category and the qualitative MPKI profile of Table I.  The
category interaction — CCF applications co-running with LLCT/LLCF
ones suffer inclusion victims — is what every figure in the paper is
built on, and is what the calibration tests pin down.
"""

from .trace import (
    TraceRecord,
    core_address_offset,
    cyclic,
    instruction_count,
    load_trace,
    offset_addresses,
    save_trace,
    take,
)
from .synthetic import (
    MixtureProfile,
    RegionSpec,
    mixture_trace,
    looping_trace,
    strided_trace,
    random_trace,
)
from .categories import (
    CATEGORY_CCF,
    CATEGORY_LLCF,
    CATEGORY_LLCT,
    category_of,
    mix_category,
)
from .spec import (
    SPEC_APPS,
    AppProfile,
    app_names,
    app_profile,
    app_stream,
    app_trace,
)
from .mixes import (
    TABLE2_MIXES,
    WorkloadMix,
    all_two_core_mixes,
    mix_by_name,
    random_mixes,
)

__all__ = [
    "TraceRecord",
    "core_address_offset",
    "cyclic",
    "instruction_count",
    "load_trace",
    "offset_addresses",
    "save_trace",
    "take",
    "MixtureProfile",
    "RegionSpec",
    "mixture_trace",
    "looping_trace",
    "strided_trace",
    "random_trace",
    "CATEGORY_CCF",
    "CATEGORY_LLCF",
    "CATEGORY_LLCT",
    "category_of",
    "mix_category",
    "SPEC_APPS",
    "AppProfile",
    "app_names",
    "app_profile",
    "app_stream",
    "app_trace",
    "TABLE2_MIXES",
    "WorkloadMix",
    "all_two_core_mixes",
    "mix_by_name",
    "random_mixes",
]
