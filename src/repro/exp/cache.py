"""On-disk JSON cache for AL-run results.

Several tables reuse the same configuration (the DIAL default run feeds
Tables 2, 4, 5, 6, 7, 8, 9); benchmark files run independently under
pytest, so the cache lives on disk, keyed by a hash of the *resolved*
config (dataset, scale, seed, every knob).

CAVEAT: the key covers configuration, not code — after changing any
algorithm/generator code, delete the cache directory (default
``.bench_cache/``) or point ``REPRO_CACHE_DIR`` elsewhere, or stale
results will be served."""
from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

_CHECKOUT = Path(__file__).resolve().parents[3]  # the checkout holding this package
CACHE_DIR = Path(os.environ.get("REPRO_CACHE_DIR", _CHECKOUT / ".bench_cache"))


def config_key(cfg: dict) -> str:
    blob = json.dumps(cfg, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:20]


def load(key: str) -> dict | None:
    p = CACHE_DIR / f"{key}.json"
    if p.exists():
        with open(p) as f:
            return json.load(f)
    return None


def store(key: str, value: dict) -> None:
    CACHE_DIR.mkdir(parents=True, exist_ok=True)
    tmp = CACHE_DIR / f"{key}.tmp"
    with open(tmp, "w") as f:
        json.dump(value, f, default=float)
    tmp.rename(CACHE_DIR / f"{key}.json")
