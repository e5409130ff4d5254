"""The paper's reported numbers, as structured constants.

Single source of truth for "what did the paper measure", checked by the
calibration tests and quoted in EXPERIMENTS.md. Values are transcribed
from Kim, Kim & Huh, MICRO 2010.
"""

from __future__ import annotations

from typing import Dict, Tuple

# ----------------------------------------------------------------------
# Figure 1 — hypervisor + dom0 share of L2 misses (percent).
# The paper quotes exact values only for the outliers; the rest are
# described as "less than 5%".
# ----------------------------------------------------------------------
FIG1_HYP_DOM0_SHARE_PCT: Dict[str, float] = {
    "dedup": 11.0,
    "freqmine": 8.0,
    "raytrace": 7.0,
    "oltp": 15.0,
    "specweb": 19.0,
}
FIG1_DEFAULT_BOUND_PCT = 5.0

# ----------------------------------------------------------------------
# Table I — average VM relocation periods (milliseconds).
# ----------------------------------------------------------------------
TABLE1_RELOCATION_MS: Dict[str, Tuple[float, float]] = {
    # app: (undercommitted, overcommitted)
    "blackscholes": (2880.6, 91.3),
    "bodytrack": (26.1, 1.2),
    "canneal": (28.4, 3.4),
    "dedup": (10.8, 0.1),
    "facesim": (30.0, 1.2),
    "ferret": (375.9, 31.5),
    "fluidanimate": (46.6, 7.9),
    "freqmine": (1968.0, 2064.4),
    "raytrace": (528.8, 23.6),
    "streamcluster": (36.2, 1.3),
    "swaptions": (2203.1, 80.3),
    "vips": (18.3, 0.7),
    "x264": (29.2, 8.2),
}
TABLE1_AVERAGE_MS = (629.4, 178.1)

# ----------------------------------------------------------------------
# Table IV — network traffic reduction with ideally pinned VMs (percent).
# ----------------------------------------------------------------------
TABLE4_TRAFFIC_REDUCTION_PCT: Dict[str, float] = {
    "cholesky": 63.79,
    "fft": 63.20,
    "lu": 64.27,
    "ocean": 63.74,
    "radix": 63.39,
    "blackscholes": 64.22,
    "canneal": 63.35,
    "dedup": 64.97,
    "ferret": 63.05,
    "specjbb": 62.79,
}
TABLE4_AVERAGE_PCT = 63.68

# ----------------------------------------------------------------------
# Figure 6 — execution time reductions, ideally pinned (percent range).
# ----------------------------------------------------------------------
FIG6_RUNTIME_REDUCTION_RANGE_PCT = (0.2, 9.1)
FIG6_AVERAGE_REDUCTION_PCT = 3.8

# ----------------------------------------------------------------------
# Figures 7/8 — headline normalised-snoop claims (percent of TokenB).
# ----------------------------------------------------------------------
FIG7_IDEAL_PCT = 25.0
FIG8_BASE_AT_0_1MS_REDUCTION_PCT = 4.0  # base reduces only ~4%
FIG8_COUNTER_AT_0_1MS_REDUCTION_PCT = 45.0

# ----------------------------------------------------------------------
# Table V — content-shared page shares (percent).
# ----------------------------------------------------------------------
TABLE5_CONTENT_SHARES_PCT: Dict[str, Tuple[float, float]] = {
    # app: (L1 access %, L2 miss %)
    "cholesky": (1.45, 2.66),
    "fft": (5.43, 30.64),
    "lu": (0.43, 8.87),
    "ocean": (0.40, 0.83),
    "radix": (20.47, 0.96),
    "blackscholes": (46.16, 41.10),
    "canneal": (25.16, 51.49),
    "ferret": (3.64, 5.13),
    "specjbb": (9.48, 37.74),
}
TABLE5_AVERAGE_PCT = (12.51, 19.94)

# ----------------------------------------------------------------------
# Table VI — data-holder decomposition for content-shared misses (%).
# ----------------------------------------------------------------------
TABLE6_HOLDERS_PCT: Dict[str, Dict[str, float]] = {
    "fft": {"cache_all": 47.3, "intra": 0.1, "friend": 24.4, "memory": 52.7},
    "blackscholes": {"cache_all": 53.2, "intra": 6.9, "friend": 27.7, "memory": 46.8},
    "canneal": {"cache_all": 63.9, "intra": 26.9, "friend": 21.0, "memory": 37.1},
    "specjbb": {"cache_all": 54.3, "intra": 14.8, "friend": 21.5, "memory": 45.7},
}

# ----------------------------------------------------------------------
# Figure 2 — quoted potential reductions (percent).
# ----------------------------------------------------------------------
FIG2_IDEAL_16VMS_PCT = 93.75
FIG2_5PCT_HYP_16VMS_PCT = 89.1
FIG2_10PCT_HYP_16VMS_PCT = 84.4
