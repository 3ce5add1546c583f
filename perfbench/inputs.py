"""Deterministic input generators for the three benchmark workloads.

Every generator is a pure function of the workload seed: the same seed writes
byte-identical files.  mixlab itself only ever sees the files written here.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

# Sizes of the offline-analysis inputs.
OFFLINE_M = 6
OFFLINE_RECORDS = 20_000
OFFLINE_PAIRS = 50_000
PROPOSE_N = 200_000
PROPOSE_K = 10


def accept_train_config(seed: int) -> dict:
    """The acceptance-suite pipeline (m=4, k=138, A=4, G=6, 240 steps, 78 runs).

    Chosen because more than 90% of its time is per-step Python in grpo,
    sampler, world and rewards.combined_reward, while fit and propose take a
    few milliseconds: a change to the training loop shows here first.  Pools
    of 400 never run dry in 240 steps, so every run has the same length.  At
    seed 0 this is exactly the acceptance config; the seed moves ``base_seed``
    and with it every pilot and verification run seed.
    """
    k = 138
    out_skills = list(range(0, 90)) + list(range(130, 138))
    return {
        "world": {
            "m": 4, "k": k, "A": 4,
            "pool_sizes": [400, 400, 400, 400],
            "domain_skills": [
                list(range(0, 40)),
                list(range(0, 40)),
                list(range(30, 90)),
                list(range(90, 120)),
            ],
            "benchmarks": [
                {"name": "in-01", "group": "in", "skills": list(range(0, 40))},
                {"name": "in-2", "group": "in", "skills": list(range(30, 90))},
                {"name": "in-3", "group": "in", "skills": list(range(90, 120))},
                {"name": "out-main", "group": "out", "skills": out_skills},
            ],
        },
        "world_seed": 0,
        "train": {"steps": 240, "peak_learning_rate": 0.07},
        "seed_plan": {"replicates": 2},
        "fit": {"degree": 2, "n_splits": 5, "test_fraction": 0.25, "seed": 11},
        "proposal": {"n_samples": 2000, "k": 5, "jitter": 1e-4, "seed": 11},
        "verify_seeds": 10,
        "base_seed": 42 + seed,
    }


def ragged_refine_config(seed: int) -> dict:
    """A generated-window world whose small pools run dry before the step budget.

    The same training layers as accept-train, used differently: most runs stop
    on pool exhaustion (ragged lengths), inner_epochs=2 moves ratios off 1 so
    the clip path runs, a refine round grows the fit set, and it runs at
    ``--jobs 2`` so the process pool is in use.  A batching or pool change that
    only helps fixed-length serial runs shows a cost here.

    Six pilot replicates per planned mixture: how long the verification and
    refine runs last depends on which mixtures get proposed, so it varies with
    the seed; the 66 pilot runs, whose lengths barely do, keep the total work
    within a few percent across seeds.
    """
    return {
        "world": {
            "m": 5, "k": 100, "A": 16,
            "pool_sizes": [60, 120, 200, 300, 500],
            "held_out_skills": 10,
        },
        "world_seed": 0,
        "train": {"steps": 300, "group_size": 16, "inner_epochs": 2},
        "seed_plan": {"replicates": 6},
        "fit": {"seed": 0},
        "proposal": {"k": 5, "seed": 0},
        "verify_seeds": 4,
        "base_seed": 42 + seed,
    }


PIPELINE_CONFIGS = {
    "accept-train": accept_train_config,
    "ragged-refine": ragged_refine_config,
}


def planned_record_count(config: dict, refine_rounds: int) -> int:
    """Records a pipeline run writes: pilots, refine additions, final verification."""
    m = config["world"]["m"]
    plan = config.get("seed_plan", {})
    mixtures = m + (m if m >= 3 else 0) + 1  # singles, exclude-ones, all
    pilots = mixtures * plan.get("replicates", 1)
    k = config.get("proposal", {}).get("k", 10)
    return pilots + refine_rounds * k + (k + 1) * config.get("verify_seeds", 3)


# --- offline-analysis ---------------------------------------------------------
# No training at all: records, surrogate, search, heuristics and rewards do
# all the work, so a change to grpo predicts no change on this workload.

OFFLINE_SUITE = [
    {"name": "in-a", "count": 1200, "group": "in"},
    {"name": "in-b", "count": 800, "group": "in"},
    {"name": "out-a", "count": 2500, "group": "out"},
    {"name": "out-b", "count": 1000, "group": "out"},
    {"name": "out-c", "count": 600, "group": "out"},
]


def _planted_surface(rng: random.Random, m: int):
    """A quadratic b + a.w + 0.5 w'Cw that stays inside (0.2, 0.8) on the simplex."""
    b = rng.uniform(0.4, 0.6)
    a = [rng.uniform(-0.1, 0.1) for _ in range(m)]
    c = [[0.0] * m for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            c[i][j] = c[j][i] = rng.uniform(-0.2, 0.2)

    def value(w):
        quad = sum(w[i] * c[i][j] * w[j] for i in range(m) for j in range(m))
        return b + sum(ai * wi for ai, wi in zip(a, w)) + 0.5 * quad

    return value


def _sparse_dirichlet(rng: random.Random, m: int) -> list[float]:
    support = sorted(rng.sample(range(m), rng.randint(1, m)))
    draws = [rng.gammavariate(1.0, 1.0) for _ in support]
    total = sum(draws)
    weights = [0.0] * m
    for index, draw in zip(support, draws):
        weights[index] = draw / total
    return weights


def write_offline_records(seed: int, records_path: Path, suite_path: Path) -> int:
    """Records over sparse Dirichlet mixtures scored by a planted quadratic plus noise.

    Returns the number of lines written.  The first line is an untrained
    baseline without weights, which fit and propose must skip.
    """
    rng = random.Random(f"offline-records:{seed}")
    m = OFFLINE_M
    surface = _planted_surface(rng, m)
    offsets = {b["name"]: rng.uniform(-0.1, 0.1) for b in OFFLINE_SUITE}
    lines = [json.dumps({
        "id": "base", "datasets": [], "weights": None,
        "scores": {name: 0.25 for name in offsets}, "step": None,
    })]
    for index in range(OFFLINE_RECORDS - 1):
        w = _sparse_dirichlet(rng, m)
        level = surface(w)
        scores = {
            name: min(1.0, max(0.0, level + offset + rng.gauss(0.0, 0.02)))
            for name, offset in offsets.items()
        }
        lines.append(json.dumps({
            "id": f"r{index}",
            "datasets": [i + 1 for i, v in enumerate(w) if v != 0.0],
            "weights": w,
            "scores": scores,
            "step": 100,
        }))
    records_path.write_text("\n".join(lines) + "\n")
    suite_path.write_text(json.dumps(OFFLINE_SUITE) + "\n")
    return len(lines)


# --- reward pairs -------------------------------------------------------------

_WORDS = ("alpha", "beta", "gamma", "delta", "42", "3.14", "x = 7", "red car", "B")


def _wrap(answer: str, think: str = "work") -> str:
    return f"<think>{think}</think>\n<answer>{answer}</answer>"


def _text_pair(rng: random.Random) -> tuple[dict, float]:
    gold = rng.choice(_WORDS)
    other = rng.choice([w for w in _WORDS if w != gold])
    kind = rng.randrange(6)
    if kind == 0:  # exact
        return {"prediction": _wrap(gold), "gold": gold}, 3.0
    if kind == 1:  # whitespace variant of the gold answer
        spaced = "  " + gold.replace(" ", " \n\t ") + " \n"
        return {"prediction": _wrap(spaced), "gold": gold}, 3.0
    if kind == 2:  # well-formed but wrong
        return {"prediction": _wrap(other), "gold": gold}, 1.0
    if kind == 3:  # missing answer tag
        return {"prediction": f"<think>work</think> {gold}", "gold": gold}, 0.0
    if kind == 4:  # two tagged pairs: the last one wins
        return {"prediction": _wrap(other) + " " + _wrap(gold), "gold": gold}, 3.0
    # tags in the wrong order
    return {"prediction": f"<answer>{gold}</answer><think>work</think>", "gold": gold}, 0.0


def _box(rng: random.Random) -> list[int]:
    x1, y1 = rng.randrange(0, 200), rng.randrange(0, 200)
    return [x1, y1, x1 + rng.randrange(1, 120), y1 + rng.randrange(1, 120)]


def _exact_iou(a: list[int], b: list[int]) -> Fraction:
    inter_w = min(a[2], b[2]) - max(a[0], b[0])
    inter_h = min(a[3], b[3]) - max(a[1], b[1])
    inter = max(0, inter_w) * max(0, inter_h)
    union = (a[2] - a[0]) * (a[3] - a[1]) + (b[2] - b[0]) * (b[3] - b[1]) - inter
    return Fraction(inter, union) if union > 0 else Fraction(0)


def _box_pair(rng: random.Random) -> tuple[dict, float]:
    gold = _box(rng)
    kind = rng.randrange(4)
    if kind == 3:  # unparseable payloads score as a format failure
        payload = rng.choice([
            "[{'Position': [1, 2, 3], 'Confidence': 0.5}]",
            "[{'Position': [9, 9, 1, 1], 'Confidence': 0.5}]",
            "not a box",
            "[]",
        ])
        return {"prediction": _wrap(payload), "gold": gold}, 0.0
    boxes = [_box(rng) for _ in range(1 + kind)]
    if rng.random() < 0.5:  # overlap the gold box often enough to score
        x, y = rng.randrange(-20, 21), rng.randrange(-20, 21)
        boxes[-1] = [gold[0] + x, gold[1] + y, gold[2] + x, gold[3] + y]
    confidences = rng.sample(range(1, 100), len(boxes))
    quote = rng.choice(["'", '"'])
    payload = "[" + ", ".join(
        f"{{{quote}Position{quote}: {box}, {quote}Confidence{quote}: {conf / 100}}}"
        for box, conf in zip(boxes, confidences)
    ) + "]"
    best = boxes[max(range(len(boxes)), key=lambda i: confidences[i])]
    return {"prediction": _wrap(payload), "gold": gold}, 2.0 * float(_exact_iou(best, gold)) + 1.0


def write_pairs(seed: int, path: Path) -> list[tuple[str, float]]:
    """Prediction/gold JSONL lines and, per line, (mode, planted expected total)."""
    rng = random.Random(f"pairs:{seed}")
    lines = []
    expected = []
    for _ in range(OFFLINE_PAIRS):
        mode = "text" if rng.random() < 0.6 else "box"
        obj, total = _text_pair(rng) if mode == "text" else _box_pair(rng)
        obj["mode"] = mode
        lines.append(json.dumps(obj))
        expected.append((mode, total))
    path.write_text("\n".join(lines) + "\n")
    return expected
