import math

import numpy as np

from tsnet.report import canonical_json


def test_canonical_json_maps_non_finite_to_null():
    text = canonical_json({"b": [math.nan, math.inf], "a": np.float64(-np.inf), "c": 1.5})
    assert text == '{\n  "a": null,\n  "b": [\n    null,\n    null\n  ],\n  "c": 1.5\n}\n'
