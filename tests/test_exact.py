"""Golden floats against exact references in rational arithmetic.

Each test rebuilds a golden's numbers from the program's own float inputs
with ``fractions.Fraction``, reports each golden float's distance from the
exact answer in ulp, and bounds it.
"""

import json
import pathlib

import numpy as np

from conftest import acceptance_note, smce_exact, ulps
from focalcal.data import load_predictions

HERE = pathlib.Path(__file__).resolve().parent


def test_smce_golden_against_exact():
    pset = load_predictions(HERE / "fixtures" / "preds.jsonl")
    # the pooling of smce: float residuals added at each knot in row order
    knots, inverse = np.unique(pset.probs.ravel(), return_inverse=True)
    weights = np.zeros(knots.size)
    np.add.at(weights, inverse, (np.eye(pset.k)[pset.labels] - pset.probs).ravel())
    x, value = smce_exact(weights.tolist(), knots.tolist())
    assert all(-1 <= xi <= 1 for xi in x)

    golden = json.loads((HERE / "golden" / "smce.json").read_text())
    assert golden["witness"]["knots"] == knots.tolist()
    witness_ulps = [ulps(g, e) for g, e in zip(golden["witness"]["values"], x, strict=True)]
    value_ulps = ulps(golden["value"], value / pset.n)
    acceptance_note(f"smce.json against exact rationals: value {value_ulps:+.2f} ulp, "
                    "witness " + ", ".join(f"{u:+.2f}" for u in witness_ulps) + " ulp")
    # the witness is correctly rounded; the value sums w_i x_i in floats
    # and sat 1.58 ulp below the exact value when this test was written
    assert max(abs(u) for u in witness_ulps) <= 0.5
    assert abs(value_ulps) <= 2.0
