"""Load generator for the serve-fleet workload: one sending process, few threads.

Run by ``fleet.py`` as its own process, so the generator never competes with
the supervisor for one interpreter lock.  It sends ``POST /query`` requests
keyed by (originator, query_id), with keys drawn Zipf-skewed from a key space
much larger than the fleet's response cache, in two phases:

* **closed loop** -- every thread sends its next request as soon as the
  previous one is answered, for saturation throughput.  It runs first, so
  the open loop meets a warm response cache rather than the cold start;
* **open loop** -- request ``i`` is due at ``i / rate`` seconds.  A thread
  takes the next request, sleeps until it is due and sends it; when every
  thread is busy the request goes out late.  Latency is timed from the due
  time, so a stall also counts against the requests queued behind it, and
  the lateness of every send is recorded.

Each phase runs in ``segments`` equal segments.  Between two segments, with
nothing in flight, the generator times the fixed reference workload of
``hostspeed.py`` on every core at once, in ``threads`` helper processes
forked before any load thread starts (they send no requests and sit idle
while a segment runs), and returns those runs, so the caller can read each
segment against the host's speed around it.  Row times are shifted by the
segment's place in the phase, so the open loop's rows read as one schedule.

Each request is decoded the way ``ServeClient.query`` decodes it
(``wire.decode_answer``) inside the timed region, and the SHA-256 of its raw
body is recorded so the caller can check every answer against a reference.

Usage (the arguments ``fleet.py`` passes)::

    python3 perfbench/loadgen.py --url http://127.0.0.1:PORT --spec spec.json --out out.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import random
import resource
import threading
import time
import urllib.error
import urllib.request
from itertools import accumulate
from typing import Any, Dict, List, Tuple

from repro.serve import wire

from hostspeed import HostSpeed


def key_sequence(
    seed: int, key_space: int, exponent: float, count: int
) -> List[int]:
    """``count`` key ids drawn Zipf(``exponent``) over ``key_space`` keys.

    Popularity ranks are mapped to key ids through a seeded permutation, so
    the hot keys are scattered over originators and query ids.
    """
    rng = random.Random(seed)
    ids = list(range(key_space))
    rng.shuffle(ids)
    cumulative = list(accumulate(1.0 / (rank ** exponent) for rank in range(1, key_space + 1)))
    ranks = rng.choices(range(key_space), cum_weights=cumulative, k=count)
    return [ids[rank] for rank in ranks]


def request_body(key: int, originators: List[str], required: int) -> bytes:
    """The ``/query`` body for one key, as ``ServeClient.query`` would send it."""
    payload = {
        "required_results": required,
        "originator": originators[key % len(originators)],
        "query_id": key,
    }
    return json.dumps(payload).encode("utf-8")


def send(url: str, body: bytes, trace: bool) -> Tuple[int, bool, str, int, float]:
    """POST one query; returns (status, cache hit, body digest, bytes, decode s)."""
    request = urllib.request.Request(
        url + "/query",
        data=body,
        headers={"Accept": "application/json", "Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=30.0) as response:
            raw = response.read()
            hit = response.headers.get("X-Repro-Cache") == "hit"
            status = response.status
    except urllib.error.HTTPError as exc:
        return exc.code, False, "", 0, 0.0
    except (urllib.error.URLError, ConnectionError, TimeoutError):
        return 0, False, "", 0, 0.0
    decode_started = time.perf_counter() if trace else 0.0
    wire.decode_answer(json.loads(raw.decode("utf-8"))["answer"])
    decode_s = time.perf_counter() - decode_started if trace else 0.0
    return status, hit, hashlib.sha256(raw).hexdigest(), len(raw), decode_s


def run_phase(
    spec: Dict[str, Any], keys: List[int], open_loop: bool, seconds: float
) -> Tuple[float, List[List[Any]]]:
    """Drive one segment; returns its start time and one row per request,
    times from that start: [key, due, sent, done, status, hit, digest, bytes,
    decode_s]."""
    url, originators = spec["url"], spec["originators"]
    required, trace = spec["required"], spec["trace"]
    rate = spec["rate"]
    total = len(keys)
    rows: List[List[Any]] = []
    lock = threading.Lock()
    cursor = [0]
    start = time.perf_counter() + 0.05
    stop_at = start + seconds

    def worker() -> None:
        while True:
            with lock:
                index = cursor[0]
                cursor[0] += 1
            if index >= total:
                return
            if open_loop:
                due = start + index / rate
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
            else:
                if time.perf_counter() >= stop_at:
                    return
            sent = time.perf_counter()
            if not open_loop:
                due = sent
            key = keys[index]
            status, hit, digest, size, decode_s = send(
                url, request_body(key, originators, required), trace
            )
            done = time.perf_counter()
            with lock:
                rows.append(
                    [key, due - start, sent - start, done - start, status, hit, digest, size, decode_s]
                )

    threads = [threading.Thread(target=worker) for _ in range(spec["threads"])]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return start, rows


def run_segments(
    spec: Dict[str, Any], host: HostSpeed, keys: List[int], open_loop: bool, seconds: float
) -> Tuple[List[List[Any]], List[Dict[str, float]]]:
    """Drive one phase in ``spec["segments"]`` segments with a reference run
    before each and after the last; returns the rows (each with its segment
    index appended) and each segment's start and end."""
    segments = spec["segments"]
    length = seconds / segments
    share = len(keys) // segments
    rows: List[List[Any]] = []
    bounds: List[Dict[str, float]] = []
    for index in range(segments):
        host.sample()
        start, part = run_phase(spec, keys[index * share:(index + 1) * share], open_loop, length)
        wall = max((row[3] for row in part), default=length)
        offset = index * length
        for row in part:
            row[1:4] = [row[1] + offset, row[2] + offset, row[3] + offset]
            row.append(index)
        rows.extend(part)
        bounds.append({"start": start, "end": start + wall})
    host.sample()
    return rows, bounds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--url", required=True)
    parser.add_argument("--spec", required=True, help="JSON file with the load spec")
    parser.add_argument("--out", required=True, help="JSON file for the results")
    args = parser.parse_args()
    with open(args.spec, encoding="utf-8") as handle:
        spec = json.load(handle)
    spec["url"] = args.url
    open_count = round(spec["rate"] * spec["open_seconds"])
    # The closed loop cannot exceed this many requests: far above saturation.
    closed_cap = int(2000 * spec["closed_seconds"]) + 1
    keys = key_sequence(
        spec["seed"], spec["key_space"], spec["zipf_exponent"], open_count + closed_cap
    )
    # The fleet keeps every core busy, so the host's speed is read with the
    # reference running on every core at once, from processes forked before
    # any load thread starts; they sit idle while a segment runs.
    pool = multiprocessing.get_context("fork").Pool(spec["threads"])
    try:
        # Only the samples are used here; fleet.py reads the load against them.
        host = HostSpeed(nominal_s=0.0, window_s=0.0, pool=pool, width=spec["threads"])
        closed_rows, closed_segments = run_segments(
            spec, host, keys[open_count:], False, spec["closed_seconds"]
        )
        open_rows, open_segments = run_segments(
            spec, host, keys[:open_count], True, spec["open_seconds"]
        )
    finally:
        pool.close()
        pool.join()
    result = {
        "open": open_rows,
        "closed": closed_rows,
        "segments": {"open": open_segments, "closed": closed_segments},
        "references": host.references,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
