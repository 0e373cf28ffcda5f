"""Correctness checks that every benchmark run makes.

- ``LiveGuard``: no number may come from the on-disk AL-result cache.
- ``RoundRecorder`` + ``check_rounds``: per-round invariants of the AL
  loop, from the seed set, the selected batches and ``history``.
- ``round_digests``: one digest per round of its quality metrics and
  selected batch; repeats at one seed must give the same digests.
- ``duckdb_final``: the traced run recomputes the final CAND recall and
  all-pairs P/R/F1 in DuckDB from the collected frames.
"""
from __future__ import annotations

import hashlib
import json
import math
import time
from pathlib import Path

from tracing import Hooks

# Seed-0 quality at bench scale, from live runs. The Abt-Buy values are
# EXPERIMENTS.md Table 2's; dial-walmart stops after 2 of Table 2's 3 rounds.
SEED0_QUALITY = {
    "dial-walmart": {"all_pairs_f1": 80.85, "cand_recall": 92.39},
    "rfqbc-abt": {"all_pairs_f1": 80.45, "cand_recall": 97.87},
}

# Seed-0 ``round_digests`` at bench scale, from live runs.
SEED0_DIGESTS = {
    "dial-walmart": ["94589de9368a7938", "9ab831d3d08675f5"],
    "rfqbc-abt": ["0e26c62ddaab4afe", "c80facc39f085cf7", "36babb660cad4f8e"],
}


class CacheReadError(RuntimeError):
    pass


class LiveGuard:
    """Fails the run if the AL-result cache is read or written.

    ``REPRO_CACHE_DIR`` points at ``cache_dir``, an empty directory made
    for this run; ``repro.exp.cache.load`` is wrapped to record and
    raise on any call.
    """

    def __init__(self, cache_dir: Path):
        self.cache_dir = cache_dir
        self.loads: list[tuple] = []
        self._hooks = Hooks()

    def install(self) -> None:
        def make(orig):
            def load(*a, **kw):
                self.loads.append(a)
                raise CacheReadError(f"AL-result cache read during a live run: {a}")
            return load
        self._hooks.wrap("repro.exp.cache:load", make)

    def uninstall(self) -> None:
        self._hooks.undo()

    def violations(self) -> list[str]:
        out = [f"cache.load called {len(self.loads)}x"] if self.loads else []
        left = sorted(p.name for p in self.cache_dir.iterdir()) if self.cache_dir.exists() else []
        if left:
            out.append(f"cache dir not empty: {left[:5]}")
        return out


class RoundRecorder:
    """Records the seed set T_0 and each round's selected batch."""

    def __init__(self):
        self.seed = None
        self.batches: list[list[tuple[str, str]]] = []
        self.positives: list[int] = []
        self.handed_in: list[float] = []  # perf_counter when each batch goes to the labeler
        self._hooks = Hooks()

    def install(self) -> None:
        def make_seed(orig):
            def seed_labeled(*a, **kw):
                self.seed = orig(*a, **kw)
                return self.seed
            return seed_labeled

        def make_label(orig):
            def label_pairs(pairs, *a, **kw):
                self.handed_in.append(time.perf_counter())
                self.batches.append(list(zip(pairs.rid_r, pairs.rid_s)))
                out = orig(pairs, *a, **kw)
                self.positives.append(int(out.label.sum()))
                return out
            return label_pairs

        self._hooks.wrap("repro.core.dial:_seed_labeled", make_seed)
        self._hooks.wrap("repro.core.labeler:label_pairs", make_label)

    def uninstall(self) -> None:
        self._hooks.undo()


def _in_range(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x) and 0.0 <= x <= 100.0


def check_rounds(history, rec: RoundRecorder, *, rounds, budget, cand_limit,
                 test_keys, cand_keys=None) -> list[list[str]]:
    """→ one list of violations per attempted round (empty = round ok)."""
    out = []
    labeled = set() if rec.seed is None else set(zip(rec.seed.rid_r, rec.seed.rid_s))
    n_prev = None if rec.seed is None else len(rec.seed)
    for r in range(rounds):
        bad = []
        if r >= len(history):
            out.append(["round did not complete"])
            continue
        h = history[r]
        if rec.seed is None:
            bad.append("seed set not observed")
        if r >= len(rec.batches):
            bad.append("selected batch not observed")
            batch = []
        else:
            batch = rec.batches[r]
        if len(batch) > budget or len(set(batch)) != len(batch):
            bad.append(f"batch of {len(batch)} (B={budget}) or with repeats")
        if test_keys.intersection(batch):
            bad.append("selected a D_test pair")
        if labeled.intersection(batch):
            bad.append("selected an already-labeled pair")
        if cand_keys is not None and not cand_keys.issuperset(batch):
            bad.append("selected a pair outside CAND")
        n = h.get("n_labeled")
        if n_prev is not None and (n is None or not 0 <= n - n_prev <= budget):
            bad.append(f"|T| went {n_prev} -> {n} (B={budget})")
        if h.get("cand_size", 0) > cand_limit:
            bad.append(f"|CAND|={h['cand_size']} > {cand_limit}")
        vals = [h.get("cand_recall")] + [
            h.get(k, {}).get(m) for k in ("test", "all_pairs")
            for m in ("precision", "recall", "f1")
        ]
        if not all(_in_range(v) for v in vals):
            bad.append(f"metric outside [0, 100]: {vals}")
        labeled.update(batch)
        n_prev = n
        out.append(bad)
    return out


def round_digests(history, batches) -> list[str]:
    """Per completed round: a digest of its quality metrics and selected batch."""
    out = []
    for r, h in enumerate(history):
        q = {k: h.get(k) for k in ("cand_recall", "n_labeled", "test", "all_pairs")}
        b = batches[r] if r < len(batches) else None
        blob = json.dumps([q, b], sort_keys=True, default=str)
        out.append(hashlib.sha256(blob.encode()).hexdigest()[:16])
    return out


def duckdb_final(cand_pdf, scored_pdf, dups_pdf, final: dict) -> list[str]:
    """Recompute final CAND recall and all-pairs P/R/F1 in DuckDB."""
    import duckdb

    con = duckdb.connect()
    try:
        con.register("cand", cand_pdf[["rid_r", "rid_s"]])
        con.register("scored", scored_pdf[["rid_r", "rid_s", "prob"]])
        con.register("dups", dups_pdf[["rid_r", "rid_s"]])
        n_gold, hit, n_pred, tp = con.execute(
            """
            SELECT (SELECT count(*) FROM dups),
                   (SELECT count(*) FROM dups JOIN cand USING (rid_r, rid_s)),
                   (SELECT count(*) FROM scored WHERE prob > 0.5),
                   (SELECT count(*) FROM scored JOIN dups USING (rid_r, rid_s)
                    WHERE prob > 0.5)
            """
        ).fetchone()
    finally:
        con.close()
    p = tp / n_pred if n_pred else 0.0
    r = tp / n_gold if n_gold else 0.0
    want = {
        "cand_recall": 100.0 * hit / n_gold if n_gold else 0.0,
        "precision": 100 * p,
        "recall": 100 * r,
        "f1": 100 * (2 * p * r / (p + r) if p + r else 0.0),
    }
    got = {"cand_recall": final.get("cand_recall"), **final.get("all_pairs", {})}
    return [
        f"{k}: loop {got.get(k)} != DuckDB {v}"
        for k, v in want.items()
        if got.get(k) is None or abs(got[k] - v) > 1e-9
    ]
