"""Run settings every simulator rejects with a named ValueError, as
(keyword overrides, message fragment).  Each override applies to a run
with dt of at least 0.01, so a 0.004 horizon is shorter than half a step;
0.015 is a step and a half at the dt it sets."""

import math

import numpy as np

INVALID_RUNS = [
    ({"dt": 0.0}, "dt"), ({"dt": math.nan}, "dt"), ({"dt": math.inf}, "dt"),
    ({"horizon": -1.0}, "horizon"), ({"horizon": math.nan}, "horizon"),
    ({"horizon": math.inf}, "horizon"), ({"horizon": 0.004}, "horizon"),
    ({"horizon": 0.015, "dt": 0.01}, "whole"),
    ({"record_stride": 0}, "record_stride"), ({"record_stride": -1}, "record_stride"),
    # a fractional stride once stored uninitialised rows
    ({"record_stride": 2.5}, "record_stride must be an integer"),
    ({"paths": 0}, "paths"),
    # a float count once raised numpy's unnamed TypeError
    ({"paths": 2.5}, "paths must be a positive integer"),
    ({"paths": np.float64(3.0)}, "paths must be a positive integer"),
]
