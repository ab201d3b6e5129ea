"""Run settings every simulator rejects with a named ValueError, as
(keyword overrides, message fragment)."""

import math

INVALID_RUNS = [
    ({"dt": 0.0}, "dt"), ({"dt": math.nan}, "dt"), ({"dt": math.inf}, "dt"),
    ({"horizon": -1.0}, "horizon"), ({"horizon": math.nan}, "horizon"),
    ({"horizon": math.inf}, "horizon"),
    ({"record_stride": 0}, "record_stride"), ({"record_stride": -1}, "record_stride"),
    ({"paths": 0}, "paths"),
]
