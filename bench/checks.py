"""Independent checks of focalcal's outputs, written from the definitions.

Nothing here imports focalcal: every reference value is recomputed from the
input files with numpy and plain loops, and compared with a stated tolerance.
numpy's own exp may differ from libm's (which focalcal uses) by an ulp, and
sums run in another order, so no comparison is bit for bit.

Each ``check_*`` function returns a list of failure messages; an empty list
means the output passed.
"""

from __future__ import annotations

import csv
import heapq
import json
import math

import numpy as np

# |got - want| <= TOL_ABS + TOL_REL * |want| for every recomputed number
TOL_ABS = 1e-12
TOL_REL = 1e-12
# chain links closer than this to a bound count as tight (as for kappa bounds)
LINK_TOL = 1e-12
# pgap KKT residual bound, relative to 1 + sum_j |f_j'(kappa_j)|
KKT_TOL = 1e-9
LOG_FLOOR = 1e-12


# ---------------------------------------------------------------------------
# reading inputs and outputs

def read_rows(path, key):
    """(values (N, K), labels (N,)) from a rows-json prediction log."""
    values, labels = [], []
    with open(path) as fh:
        for line in fh:
            if line.strip():
                obj = json.loads(line)
                values.append(obj[key])
                labels.append(obj["label"])
    return np.array(values, dtype=float), np.array(labels, dtype=int)


def read_points(path):
    xs, labels = [], []
    with open(path) as fh:
        for line in fh:
            if line.strip():
                obj = json.loads(line)
                xs.append(obj["x"])
                labels.append(obj["label"])
    return np.array(xs, dtype=float), np.array(labels, dtype=int)


def read_csv(path):
    """(header, rows of floats) of a CSV file."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], [[float(v) for v in row] for row in rows[1:]]


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def normalize(values):
    """Rows rescaled to unit mass, as the program does with a probability log."""
    return values / values.sum(axis=1, keepdims=True)


def softmax(z):
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# comparison helpers

def close(errors, name, got, want):
    """Append a message to ``errors`` unless ``got`` matches ``want``; nan matches nan."""
    if isinstance(got, bool) or not isinstance(got, (int, float)):
        errors.append(f"{name}: expected a number, got {got!r}")
        return
    if math.isnan(want) or math.isnan(got):
        if not (math.isnan(want) and math.isnan(got)):
            errors.append(f"{name}: got {got!r}, want {want!r}")
        return
    if not abs(got - want) <= TOL_ABS + TOL_REL * abs(want):
        errors.append(f"{name}: got {got!r}, want {want!r} (diff {got - want:.3e})")


# ---------------------------------------------------------------------------
# binned metrics, from explicit loops over the bins

def width_bin_masks(values, m):
    """Equal-width bins (lo, hi] on [0, 1], with 0 in the first bin."""
    masks = []
    for b in range(m):
        mask = values <= (b + 1) / m
        if b:
            mask &= values > b / m
        masks.append(mask)
    return masks


def reliability_rows(probs, labels, m):
    """Per equal-width bin: lo, hi, count, accuracy, confidence (nan if empty)."""
    conf = probs.max(axis=1)
    correct = (probs.argmax(axis=1) == labels).astype(float)
    rows = []
    for b, mask in enumerate(width_bin_masks(conf, m)):
        cnt = int(mask.sum())
        acc = float(correct[mask].mean()) if cnt else math.nan
        cf = float(conf[mask].mean()) if cnt else math.nan
        rows.append((b / m, (b + 1) / m, cnt, acc, cf))
    return rows


def ece_mce(probs, labels, m):
    n = len(labels)
    ece, gaps = 0.0, []
    for _, _, cnt, acc, cf in reliability_rows(probs, labels, m):
        if cnt:
            ece += cnt / n * abs(acc - cf)
            gaps.append(abs(acc - cf))
    return ece, max(gaps)


def adaece(probs, labels, m):
    """Equal-mass bins: M contiguous runs of the stable confidence sort."""
    conf = probs.max(axis=1)
    correct = (probs.argmax(axis=1) == labels).astype(float)
    order = np.argsort(conf, kind="stable")
    c, r = conf[order], correct[order]
    n = len(labels)
    base, rem = divmod(n, m)
    total, start = 0.0, 0
    for i in range(m):
        size = base + (1 if i < rem else 0)
        if size:
            run = slice(start, start + size)
            total += size / n * abs(r[run].mean() - c[run].mean())
        start += size
    return total


def classwise_ece(probs, labels, m):
    """Mean over classes of the equal-width binned gap of p_k, weighted by |B|/N."""
    n, k = probs.shape
    total = 0.0
    for cls in range(k):
        pk = probs[:, cls]
        hits = (labels == cls).astype(float)
        for mask in width_bin_masks(pk, m):
            if mask.any():
                total += mask.sum() / n * abs(hits[mask].mean() - pk[mask].mean())
    return total / k


def scores(probs, labels):
    """Mean NLL (log floored at 1e-12), Brier score summed over classes, top-1 error."""
    n = len(labels)
    nll = brier = err = 0.0
    for row, y in zip(probs.tolist(), labels.tolist()):
        nll -= math.log(max(row[y], LOG_FLOOR))
        brier += sum((p - (c == y)) ** 2 for c, p in enumerate(row))
        err += row.index(max(row)) != y
    return nll / n, brier / n, err / n


# ---------------------------------------------------------------------------
# smooth calibration error: exact chain solve by the slope trick

def smce(probs, labels):
    """max (1/N) sum_i w_i f(v_i) over f with |f| <= 1 and |f(u) - f(v)| <= |u - v|.

    The pairs (v, w) pool every sample and class: v = p_k, w = [y = k] - p_k,
    summed at equal v. On the sorted knots the problem is a chain, solved by
    a dynamic program over V_j(x), the best prefix value with f(v_j) = x. V_j
    is concave and piecewise linear, kept as the breakpoints of its slope:
    ``left`` (a max-heap) holds those left of its maximum and ``right`` those
    right of it, each with the amount by which the slope drops there; the
    bounds -1 and 1 are breakpoints of infinite amount. Adding w x moves the
    maximum across breakpoints; the window |x - y| <= d shifts the left ones
    by -d and the right ones by +d. O(m log m) for m knots.
    """
    n, k = probs.shape
    pooled_v = probs.ravel()
    pooled_w = (np.eye(k)[labels] - probs).ravel()
    knots, inverse = np.unique(pooled_v, return_inverse=True)
    weights = np.zeros(knots.size)
    np.add.at(weights, inverse, pooled_w)

    inf = math.inf
    left = [(1.0, -1.0, inf)]   # (-x, x, amount): max-heap on x
    right = [(1.0, inf)]        # (x, amount): min-heap on x
    shift_l = shift_r = 0.0     # pending shifts of every left / right breakpoint
    best = 0.0                  # max of V on its flat top [max left, min right]
    prev = None
    for v, w in zip(knots.tolist(), weights.tolist()):
        if prev is not None:
            d = v - prev
            shift_l -= d
            shift_r += d
            heapq.heappush(left, (1.0 + shift_l, -1.0 - shift_l, inf))
            heapq.heappush(right, (1.0 - shift_r, inf))
        prev = v
        if w > 0.0:
            x, slope = right[0][0] + shift_r, w
            best += w * x
            while True:
                bx, amount = heapq.heappop(right)
                bx += shift_r
                best += slope * (bx - x)
                x = bx
                if amount >= slope:
                    if amount > slope:
                        heapq.heappush(right, (bx - shift_r, amount - slope))
                    heapq.heappush(left, (-(bx - shift_l), bx - shift_l, slope))
                    break
                heapq.heappush(left, (-(bx - shift_l), bx - shift_l, amount))
                slope -= amount
        elif w < 0.0:
            x, slope = left[0][1] + shift_l, -w
            best += w * x
            while True:
                _, bx, amount = heapq.heappop(left)
                bx += shift_l
                best += slope * (x - bx)
                x = bx
                if amount >= slope:
                    if amount > slope:
                        heapq.heappush(left, (-(bx - shift_l), bx - shift_l, amount - slope))
                    heapq.heappush(right, (bx - shift_r, slope))
                    break
                heapq.heappush(right, (bx - shift_r, amount))
                slope -= amount
    return best / n


# ---------------------------------------------------------------------------
# report: metrics JSON and reliability CSV of a probability log

def check_report(preds_path, metrics_path, reliability_path, bins):
    values, labels = read_rows(preds_path, "probs")
    probs = normalize(values)
    errors = []
    out = read_json(metrics_path)
    ece, mce = ece_mce(probs, labels, bins)
    nll, brier, err = scores(probs, labels)
    want = {"ece": ece, "mce": mce, "adaece": adaece(probs, labels, bins),
            "cwece": classwise_ece(probs, labels, bins), "nll": nll,
            "brier": brier, "error": err}
    for key, value in want.items():
        close(errors, f"metrics.{key}", out.get(key), value)
    close(errors, "metrics.smce", out.get("smce"), smce(probs, labels))
    if out.get("auroc") is not None:
        errors.append(f"metrics.auroc: got {out['auroc']!r}, want null")

    rows = reliability_rows(probs, labels, bins)
    got_bins = out.get("bins", [])
    if len(got_bins) != bins:
        errors.append(f"metrics.bins: {len(got_bins)} bins, want {bins}")
    for b, (row, got) in enumerate(zip(rows, got_bins)):
        for key, value in zip(("lo", "hi", "count", "accuracy", "confidence"), row):
            close(errors, f"metrics.bins[{b}].{key}", got.get(key), value)

    header, table = read_csv(reliability_path)
    if header != ["lo", "hi", "count", "accuracy", "confidence", "gap"]:
        errors.append(f"reliability header {header}")
    if len(table) != bins:
        errors.append(f"reliability: {len(table)} rows, want {bins}")
    for b, (row, got) in enumerate(zip(rows, table)):
        for key, g, value in zip(header, got, (*row, row[3] - row[4])):
            close(errors, f"reliability[{b}].{key}", g, value)
    return errors


# ---------------------------------------------------------------------------
# temp_scale: grid search of the temperature on validation logits

def temperature_grid(t_min, t_max, t_step):
    count = int(round((t_max - t_min) / t_step)) + 1
    return [round(t_min + t_step * i, 12) for i in range(count)]


def check_temp_scale(val_path, test_path, out_path, grid_path, bins, t_min, t_max, t_step):
    z_val, y_val = read_rows(val_path, "logits")
    z_test, y_test = read_rows(test_path, "logits")
    out = read_json(out_path)
    errors = []

    def val_ece(t):
        return ece_mce(softmax(z_val / t), y_val, bins)[0]

    ts = temperature_grid(t_min, t_max, t_step)
    grid = out.get("grid", [])
    if len(grid) != len(ts):
        return [f"temp_scale.grid: {len(grid)} points, want {len(ts)}"]
    eces = []
    for i, (t, point) in enumerate(zip(ts, grid)):
        close(errors, f"temp_scale.grid[{i}].t", point.get("t"), t)
        eces.append(val_ece(t))
        close(errors, f"temp_scale.grid[{i}].ece", point.get("ece"), eces[-1])

    header, table = read_csv(grid_path)
    if header != ["t", "ece"] or len(table) != len(ts):
        errors.append(f"temp_scale grid csv: header {header}, {len(table)} rows")
    for i, (row, t, e) in enumerate(zip(table, ts, eces)):
        close(errors, f"grid_csv[{i}].t", row[0], t)
        close(errors, f"grid_csv[{i}].ece", row[1], e)

    # the reported grid minimum, ties to the T closest to 1, then the smaller T
    reported = [(p.get("ece"), abs(t - 1.0), t) for t, p in zip(ts, grid)]
    if all(isinstance(e, float) for e, _, _ in reported):
        close(errors, "temp_scale.best_t", out.get("best_t"), min(reported)[2])
    best_t = out.get("best_t")
    at = [i for i, t in enumerate(ts) if isinstance(best_t, float) and abs(best_t - t) <= TOL_ABS]
    if at:
        e_best = eces[at[0]]
        if not e_best <= min(eces) + TOL_ABS:
            errors.append(f"temp_scale.best_t {best_t}: ECE {e_best} above the grid minimum "
                          f"{min(eces)}")
        close(errors, "temp_scale.post_ece", out.get("post_ece"), e_best)
        close(errors, "temp_scale.test_post_ece", out.get("test_post_ece"),
              ece_mce(softmax(z_test / best_t), y_test, bins)[0])
    else:
        errors.append(f"temp_scale.best_t {best_t!r} is not a grid temperature")
    close(errors, "temp_scale.pre_ece", out.get("pre_ece"), val_ece(1.0))
    close(errors, "temp_scale.test_pre_ece", out.get("test_pre_ece"),
          ece_mce(softmax(z_test), y_test, bins)[0])
    return errors


# ---------------------------------------------------------------------------
# pgap: best 1-Lipschitz-offset remap of a binary predictor

def binary_loss(family, gamma, lam, kappa, label):
    """Per-sample loss and its derivative in kappa, the class-1 probability.

    brier: sum over both classes of (p_k - t_k)^2 = 2 (kappa - y)^2.
    fcl: (1 - p_y)^gamma (-log p_y) + lam * 2 (kappa - y)^2, logs floored
    at 1e-12 with the floor's derivative taken as that of the log.
    """
    sq = 2.0 * (kappa - label) ** 2
    dsq = 4.0 * (kappa - label)
    if family == "brier":
        return sq, dsq
    py = kappa if label == 1 else 1.0 - kappa
    sign = 1.0 if label == 1 else -1.0   # d p_y / d kappa
    pf = np.maximum(py, LOG_FLOOR)
    qy = np.maximum(1.0 - py, 0.0)
    log_p = np.log(pf)
    focal = qy ** gamma * -log_p
    # d/dp [(1-p)^g (-log p)] = g (1-p)^(g-1) log p - (1-p)^g / p
    dfocal = gamma * qy ** (gamma - 1.0) * log_p - qy ** gamma / pf if gamma else -1.0 / pf
    return focal + lam * sq, sign * dfocal + lam * dsq


def chain_kkt_residual(grad, kappa, w):
    """KKT residual of kappa for min sum f_j(kappa_j) s.t. 0 <= kappa_{j+1} - kappa_j <= w_j,
    kappa_0 >= 0 and kappa_{m-1} <= 1.

    Stationarity g = A^T lambda over those constraints pins the net force
    on link j to nu - s_j, with s_j = g_0 + ... + g_j and nu >= 0 the
    multiplier of kappa_0 >= 0 (zero unless that bound is tight); the
    multiplier of kappa_{m-1} <= 1 is nu - s_{m-1}. A slack link needs a zero
    force, a link at its lower end a force >= 0, one at its upper end a
    force <= 0. Each is an interval for nu; the residual is half the widest
    gap between a lower and an upper end, 0 when some nu satisfies them all.
    """
    s = np.cumsum(grad)
    dk = np.diff(kappa)
    at_lower = dk <= LINK_TOL
    at_upper = dk >= w - LINK_TOL
    lo = [0.0]                      # nu >= 0
    hi = [math.inf]
    lo.append(s[-1])                # multiplier of kappa_{m-1} <= 1 is >= 0
    if kappa[-1] < 1.0 - LINK_TOL:
        hi.append(s[-1])            # ... and 0 when that bound is slack
    if kappa[0] > LINK_TOL:
        hi.append(0.0)              # nu = 0 when kappa_0 > 0
    lo.extend(s[:-1][~at_upper])    # force >= 0 unless the upper end is tight
    hi.extend(s[:-1][~at_lower])    # force <= 0 unless the lower end is tight
    return max(max(lo) - min(hi), 0.0) / 2.0


def check_pgap(preds_path, out_path, family, gamma=0.0, lam=0.0):
    values, labels = read_rows(preds_path, "probs")
    p1 = normalize(values)[:, 1]
    out = read_json(out_path)
    errors = []
    knots, inverse = np.unique(p1, return_inverse=True)
    n1 = np.bincount(inverse, weights=labels == 1, minlength=knots.size)
    n0 = np.bincount(inverse, weights=labels == 0, minlength=knots.size)
    got_knots = np.asarray(out.get("map", {}).get("knots", []), dtype=float)
    kappa = np.asarray(out.get("map", {}).get("kappa", []), dtype=float)
    if got_knots.shape != knots.shape or kappa.shape != knots.shape:
        return [f"pgap.map: {got_knots.size} knots and {kappa.size} kappa values, "
                f"want {knots.size} of each"]
    if not np.all(np.abs(got_knots - knots) <= TOL_ABS):
        errors.append("pgap.map.knots differ from the sorted distinct predictions")

    w = 2.0 * np.diff(knots)
    dk = np.diff(kappa)
    if np.any(kappa < -LINK_TOL) or np.any(kappa > 1.0 + LINK_TOL):
        errors.append("pgap.map.kappa leaves [0, 1]")
    if np.any(dk < -LINK_TOL) or np.any(dk > w + LINK_TOL):
        errors.append("pgap.map.kappa breaks the chain 0 <= dkappa <= 2 dknot")

    def risk_and_grad(x):
        l1, d1 = binary_loss(family, gamma, lam, x, 1)
        l0, d0 = binary_loss(family, gamma, lam, x, 0)
        return (float(np.sum(n1 * l1 + n0 * l0)) / p1.size,
                (n1 * d1 + n0 * d0) / p1.size)

    raw, _ = risk_and_grad(knots)
    opt, grad = risk_and_grad(np.clip(kappa, 0.0, 1.0))
    close(errors, "pgap.raw_risk", out.get("raw_risk"), raw)
    close(errors, "pgap.optimized_risk", out.get("optimized_risk"), opt)
    close(errors, "pgap.pgap", out.get("pgap"), raw - opt)
    if not opt <= raw + TOL_ABS:
        errors.append(f"pgap: optimized risk {opt} above raw risk {raw}")
    residual = chain_kkt_residual(grad, kappa, w)
    bound = KKT_TOL * (1.0 + float(np.abs(grad).sum()))
    if not residual <= bound:
        errors.append(f"pgap: KKT residual {residual:.3e} above {bound:.3e}")
    return errors


# ---------------------------------------------------------------------------
# train: saved MLPs, their training histories and decision grids

def split_indices(n, seed, fractions=(0.6, 0.2, 0.2)):
    """Train / validation / test indices: a seeded permutation cut 60/20/20."""
    idx = np.random.default_rng(seed).permutation(n)
    n_train = int(round(fractions[0] * n))
    n_val = int(round(fractions[1] * n))
    return idx[:n_train], idx[n_train:n_train + n_val], idx[n_train + n_val:]


def mlp_logits(model, xs):
    """Forward pass: affine layers with the model's activation between them."""
    act = model["config"]["activation"]
    h = xs
    layers = list(zip(model["weights"], model["biases"]))
    for i, (wt, b) in enumerate(layers):
        h = h @ np.asarray(wt, dtype=float) + np.asarray(b, dtype=float)
        if i < len(layers) - 1:
            h = np.maximum(h, 0.0) if act == "relu" else np.tanh(h)
    return h


def focal_loss(probs, labels, gamma, lam):
    """Mean of sum_k t_k (1 - p_k)^gamma (-log p_k) + lam sum_k (p_k - t_k)^2."""
    t = np.eye(probs.shape[1])[labels]
    focal = t * (1.0 - probs) ** gamma * -np.log(np.maximum(probs, LOG_FLOOR))
    return float(np.mean(focal.sum(axis=1) + lam * ((probs - t) ** 2).sum(axis=1)))


def check_train(points_path, seed, model_path, history_path, boundary_path,
                bounds, resolution, bins, epochs, gamma, lam):
    """``lam`` is 0 for the focal loss."""
    xs, labels = read_points(points_path)
    model = read_json(model_path)
    errors = []

    header, history = read_csv(history_path)
    if header != ["epoch", "train_loss", "test_loss", "test_ece", "test_nll", "test_error"]:
        errors.append(f"history header {header}")
    if [int(r[0]) for r in history] != list(range(1, epochs + 1)):
        errors.append(f"history: epochs are not 1..{epochs}")
        return errors
    if not history[-1][1] < history[0][1]:
        errors.append(f"train loss did not fall: {history[0][1]} -> {history[-1][1]}")

    _, _, test = split_indices(len(labels), seed)
    probs = softmax(mlp_logits(model, xs[test]))
    nll, _, err = scores(probs, labels[test])
    close(errors, "history[-1].test_loss", history[-1][2],
          focal_loss(probs, labels[test], gamma, lam))
    close(errors, "history[-1].test_ece", history[-1][3], ece_mce(probs, labels[test], bins)[0])
    close(errors, "history[-1].test_nll", history[-1][4], nll)
    close(errors, "history[-1].test_error", history[-1][5], err)

    header, grid = read_csv(boundary_path)
    k = len(model["biases"][-1])
    if header != ["x0", "x1"] + [f"p_{i}" for i in range(k)]:
        errors.append(f"boundary header {header}")
    g0 = np.linspace(bounds[0], bounds[1], resolution)
    g1 = np.linspace(bounds[2], bounds[3], resolution)
    want_x = np.array([(a, b) for a in g0 for b in g1])
    got = np.array(grid)
    if got.shape != (resolution * resolution, 2 + k):
        errors.append(f"boundary: shape {got.shape}, want {(resolution * resolution, 2 + k)}")
        return errors
    want_p = softmax(mlp_logits(model, want_x))
    for name, g, want in (("x", got[:, :2], want_x), ("p", got[:, 2:], want_p)):
        diff = np.abs(g - want)
        worst = np.unravel_index(np.argmax(diff - TOL_REL * np.abs(want)), diff.shape)
        close(errors, f"boundary.{name}[{worst[0]}][{worst[1]}]", float(g[worst]),
              float(want[worst]))
    return errors
