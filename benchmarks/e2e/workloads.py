"""The four workloads and the seeded traffic generator.

A workload fixes *what* is offered (profile, client counts, service
catalogue, sizes, job lengths); the seed draws *which* requests come in
which order: the Zipf(1.1) popularity quota is dealt to the consumers in
a seeded shuffle, upload sizes and job lengths are stratified over their
range and shuffled, start offsets are jittered inside a 10 sim-s ramp,
and every payload carries the seed as a nonce so its bytes differ.
Keeping the mix fixed and the order random is deliberate: it keeps the
offered load equal across seeds, so seed-to-seed spread measures the
system's sensitivity to interleaving, not the generator's luck.

This module imports nothing from ``repro``: the program sees only the
generated inputs.
"""

from __future__ import annotations

import hashlib
import json
import random
from typing import Any, Dict, List

__all__ = ["WORKLOADS", "workload_names", "make_schedule",
           "schedule_digest"]

KB = 1024
ZIPF_S = 1.1
RAMP_SIM_S = 10.0

WORKLOADS: Dict[str, Dict[str, Any]] = {
    "faithful_hot": {
        "profile": "faithful",
        "why": "Per-call middleware path with every optional plane "
               "bypassed; must not move when a plane is optimised or "
               "deleted.",
        "consumers": 16, "rounds": 63, "services": 12,
        "hot_size_kb": (16, 256), "hot_job_s": (2.0, 8.0),
    },
    "faithful_bulk": {
        "profile": "faithful",
        "why": "Byte path and the write side of db/ws/core: fresh "
               "256 KB-2 MB uploads each followed by one cold invoke; "
               "per-call overhead is negligible here.",
        "providers": 6, "uploads": 20, "fresh": True,
        "bulk_size_kb": (256, 2048), "bulk_job_s": (5.0, 60.0),
    },
    "production_hot": {
        "profile": "production",
        "why": "All planes on: router, dedup, notify, coalescing, "
               "replica reads and warm client caches do the work; "
               "where collapsing or deleting a plane shows.",
        "consumers": 32, "rounds": 32, "services": 24,
        "hot_size_kb": (16, 256), "hot_job_s": (2.0, 8.0),
    },
    "production_mixed": {
        "profile": "production",
        "why": "Same layers used differently: hot reads beside "
               "scheduled re-uploads, cold invokes and a replica "
               "crash, so a gain bought with write or recovery cost "
               "shows.",
        "consumers": 24, "rounds": 42, "services": 24,
        "hot_size_kb": (16, 256), "hot_job_s": (2.0, 8.0),
        "providers": 4, "uploads": 30, "fresh": False,
        "bulk_size_kb": (256, 1024), "bulk_job_s": (2.0, 8.0),
        "upload_period_sim_s": 15.0,
        "crash": {"replica": "appliance04", "at_sim_s": 60.0,
                  "restart_sim_s": 150.0},
    },
}


def workload_names() -> List[str]:
    return list(WORKLOADS)


def _log_grid(lo: float, hi: float, n: int) -> List[float]:
    """*n* values at the mid-quantiles of a log-uniform [lo, hi]."""
    return [lo * (hi / lo) ** ((k + 0.5) / n) for k in range(n)]


def _lin_grid(lo: float, hi: float, n: int) -> List[float]:
    return [lo + (hi - lo) * (k + 0.5) / n for k in range(n)]


def _zipf_quota(n_items: int, total: int) -> List[int]:
    """Largest-remainder apportionment of *total* draws over Zipf ranks."""
    weights = [1.0 / (r + 1) ** ZIPF_S for r in range(n_items)]
    scale = total / sum(weights)
    exact = [w * scale for w in weights]
    quota = [int(x) for x in exact]
    by_remainder = sorted(range(n_items),
                          key=lambda r: (quota[r] - exact[r], r))
    for r in by_remainder[:total - sum(quota)]:
        quota[r] += 1
    return quota


def _scaled(spec: Dict[str, Any], scale: float) -> Dict[str, Any]:
    """Shorten a workload to *scale* of its rounds, same shape."""
    if scale == 1.0:
        return spec
    spec = dict(spec)
    for key in ("rounds", "uploads"):
        if key in spec:
            spec[key] = max(1, int(spec[key] * scale))
    return spec


def make_schedule(name: str, seed: int, scale: float = 1.0
                  ) -> Dict[str, Any]:
    """Everything one pass will offer, as plain JSON-able data.

    ``services``: the catalogue published during set-up (popularity
    rank order); ``owned``: the providers' own services, published with
    it.  ``consumers``: per consumer a start offset and the
    ordered list of (service index, token) to invoke.  ``providers``:
    per provider a start offset and the ordered uploads, each followed
    by one cold invoke.  ``crash``: the fault schedule, if any.
    """
    spec = _scaled(WORKLOADS[name], scale)
    rng = random.Random(f"onserve-e2e:{name}:{seed}")
    nonce = f"{name}-{seed}"
    services: List[Dict[str, Any]] = []
    consumers: List[Dict[str, Any]] = []
    providers: List[Dict[str, Any]] = []

    n_hot = spec.get("services", 0)
    if n_hot:
        sizes = _log_grid(*spec["hot_size_kb"], n_hot)
        jobs = _lin_grid(*spec["hot_job_s"], n_hot)
        # Fixed co-prime strides decorrelate size and job length from
        # popularity rank without letting the seed change the mix.
        for rank in range(n_hot):
            services.append({
                "file": f"hot{rank:02d}.bin",
                "pattern": f"Hot{rank:02d}%",
                "size": int(sizes[(rank * 5) % n_hot] * KB),
                "job_s": round(jobs[(rank * 7) % n_hot], 3),
            })

    n_prov = spec.get("providers", 0)
    owned: List[Dict[str, Any]] = []
    if n_prov and not spec["fresh"]:
        # Each provider owns one service and re-uploads it in the window.
        # Consumers never call these: a re-upload racing a hot invoke of
        # the same service on another replica can fail that invoke
        # ("service not deployed on appliance06", seen at seed 108), and
        # a benchmark workload must be one on which no operation fails.
        owned = [{"file": f"own{p:02d}.bin", "pattern": f"Own{p:02d}%",
                  "size": int(spec["bulk_size_kb"][0] * KB),
                  "job_s": spec["bulk_job_s"][0]} for p in range(n_prov)]

    if spec.get("consumers"):
        total = spec["consumers"] * spec["rounds"]
        quota = _zipf_quota(len(services), total)
        draws = [idx for idx, q in enumerate(quota) for _ in range(q)]
        rng.shuffle(draws)
        for c in range(spec["consumers"]):
            mine = draws[c * spec["rounds"]:(c + 1) * spec["rounds"]]
            consumers.append({
                "offset": RAMP_SIM_S * (c + rng.random())
                / spec["consumers"],
                "ops": [[idx, f"c{c:02d}r{r:03d}-{nonce}"]
                        for r, idx in enumerate(mine)],
            })

    if n_prov:
        total = n_prov * spec["uploads"]
        sizes = _log_grid(*spec["bulk_size_kb"], total)
        jobs = _lin_grid(*spec["bulk_job_s"], total)
        # The (size, job length) pairs are fixed by a co-prime stride;
        # the seed only deals them out in a different order.
        pairs = [(sizes[k], jobs[(k * 7) % total]) for k in range(total)]
        rng.shuffle(pairs)
        period = spec.get("upload_period_sim_s")
        for p in range(n_prov):
            offset = (RAMP_SIM_S if period is None else period) \
                * (p + rng.random()) / n_prov
            uploads = []
            for k in range(spec["uploads"]):
                i = p * spec["uploads"] + k
                if spec["fresh"]:
                    file = f"bulk{p:02d}x{k:02d}.bin"
                    pattern = f"Bulk{p:02d}x{k:02d}%"
                else:
                    file, pattern = owned[p]["file"], owned[p]["pattern"]
                uploads.append({
                    "file": file, "pattern": pattern,
                    "size": int(pairs[i][0] * KB),
                    "job_s": round(pairs[i][1], 3),
                    "due": None if period is None else k * period,
                    "token": f"p{p:02d}u{k:03d}-{nonce}",
                })
            providers.append({"offset": offset, "uploads": uploads})

    return {
        "workload": name, "seed": seed, "scale": scale, "nonce": nonce,
        "profile": spec["profile"],
        "services": services, "owned": owned, "consumers": consumers,
        "providers": providers, "crash": spec.get("crash"),
    }


def schedule_digest(schedule: Dict[str, Any]) -> str:
    """SHA-256 of the canonical JSON of *schedule*."""
    blob = json.dumps(schedule, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()
