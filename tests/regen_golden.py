"""Regenerate CLI fixtures and golden outputs.

Run from the repository root:

    python3 tests/regen_golden.py

Fixtures are small hand-sized inputs; golden files are the byte-exact CLI
outputs on them. The test suite compares fresh CLI runs against these files,
so regenerate only when an output format deliberately changes.
"""

import json
import pathlib
import sys

import numpy as np

from focalcal.cli import run

HERE = pathlib.Path(__file__).resolve().parent
FIX = HERE / "fixtures"
GOLD = HERE / "golden"


def softmax(z):
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def write_fixtures():
    FIX.mkdir(exist_ok=True)
    rows = [([0.9, 0.1], 0), ([0.8, 0.2], 0), ([0.7, 0.3], 1), ([0.6, 0.4], 0),
            ([0.4, 0.6], 1), ([0.3, 0.7], 1), ([0.2, 0.8], 0), ([0.1, 0.9], 1)]
    with open(FIX / "preds.jsonl", "w") as fh:
        for p, y in rows:
            fh.write(json.dumps({"probs": p, "label": y}) + "\n")
    with open(FIX / "preds.csv", "w") as fh:
        fh.write("p_0,p_1,label\n")
        for p, y in rows:
            fh.write(f"{p[0]},{p[1]},{y}\n")

    # validation/test logit files whose true temperature is exactly 2:
    # labels are drawn from softmax(z) while the stored logits are 2z
    rng = np.random.default_rng(7)
    for name, n in (("logits_val.jsonl", 400), ("logits_test.jsonl", 200)):
        z = rng.normal(size=(n, 3)) * 2.0
        p = softmax(z)
        labels = [int(rng.choice(3, p=pi)) for pi in p]
        with open(FIX / name, "w") as fh:
            for zi, y in zip(2.0 * z, labels):
                fh.write(json.dumps({"logits": list(zi), "label": y}) + "\n")

    with open(FIX / "pos.txt", "w") as fh:
        fh.write("0.9\n0.8\n0.8\n0.6\n")
    with open(FIX / "neg.txt", "w") as fh:
        fh.write("0.1\n0.4\n0.8\n")


def cli(argv, stdout_to=None):
    if stdout_to is None:
        rc = run(argv)
    else:
        import contextlib
        import io
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = run(argv)
        # drop the leading "config: ..." line; keep the payload
        payload = "".join(line + "\n" for line in buf.getvalue().splitlines()
                          if not line.startswith("config: "))
        stdout_to.write_text(payload)
    if rc != 0:
        sys.exit(f"command failed ({rc}): {argv}")


def main():
    write_fixtures()
    GOLD.mkdir(exist_ok=True)
    preds = str(FIX / "preds.jsonl")
    points = str(FIX / "points.jsonl")

    cli(["synth", "--kind", "moons", "--n", "20", "--noise", "0.2",
         "--seed", "1", "--out", points])
    cli(["metrics", "--input", preds, "--bins", "15",
         "--out", str(GOLD / "metrics.json")])
    cli(["reliability", "--input", preds, "--bins", "5",
         "--out", str(GOLD / "reliability.csv")])
    cli(["smce", "--input", preds, "--out", str(GOLD / "smce.json")])
    cli(["temp-scale", "--val", str(FIX / "logits_val.jsonl"),
         "--test", str(FIX / "logits_test.jsonl"),
         "--out", str(GOLD / "temp_scale.json"),
         "--grid-out", str(GOLD / "temp_grid.csv")])
    cli(["pgap", "--input", preds, "--loss", "brier",
         "--out", str(GOLD / "pgap.json")])
    cli(["pgap", "--input", preds, "--loss", "fcl", "--gamma", "3", "--lambda", "0.5",
         "--out", str(GOLD / "pgap_fcl.json")])
    cli(["minimize", "--eta", "0.7,0.3", "--loss", "fcl", "--gamma", "3",
         "--lambda", "0.5", "--out", str(GOLD / "minimize.json")])
    cli(["curve", "--loss", "focal", "--gamma", "2", "--step", "0.05",
         "--out", str(GOLD / "curve.csv")])
    cli(["sigma-root", "--gamma", "2", "--lambda", "1"],
        stdout_to=GOLD / "sigma_root.txt")
    cli(["train", "--data", points, "--loss", "fcl", "--gamma", "3",
         "--lambda", "0.5", "--epochs", "5", "--seed", "1",
         "--out-model", str(FIX / "model.json"),
         "--out-history", str(GOLD / "train_history.csv")])
    cli(["boundary", "--model", str(FIX / "model.json"), "--resolution", "5",
         "--out", str(GOLD / "boundary.csv")])
    cli(["sweep", "--data", points, "--gammas", "2.0", "--lambdas", "0.0,0.5",
         "--epochs", "5", "--out", str(GOLD / "sweep.csv")])
    cli(["auroc", "--pos", str(FIX / "pos.txt"), "--neg", str(FIX / "neg.txt")],
        stdout_to=GOLD / "auroc.txt")
    print("fixtures and golden files regenerated")


if __name__ == "__main__":
    main()
