"""Continuous-batching LLM serving under GPU sharing (paper §7).

What this shows:

1. A continuous-batching serving engine (requests join at prefill
   boundaries, finished sequences retire every decode step) runs as
   the high-priority client, with its KV cache allocated block by
   block through ``cudaMalloc``.
2. A best-effort training job is collocated with it under three
   policies: Orion's interference-aware scheduler (with phase hints
   that hold best-effort work off the compute-bound prefill),
   temporal time slicing, and plain CUDA streams.
3. We print TTFT, per-output-token latency (TPOT), decode token
   goodput, and how much best-effort training rode along — the §7
   claim is that Orion sustains near-solo decode goodput where
   temporal sharing collapses it, without blowing the TTFT SLO.

Everything is driven through the unified Scenario API:
``Scenario(kind="llm", params={...})`` — the same description the
CLI (``python -m repro run llm``), the sweep engine, and the serve
daemon accept.

Run:  python examples/llm_serving.py
"""

from repro.experiments import Scenario, run_scenario
from repro.experiments.tables import format_table

DURATION = 0.4
WARMUP = 0.05
BACKENDS = ("orion", "temporal", "streams")


def serve(backend: str):
    return run_scenario(Scenario(kind="llm", params=dict(
        seed=0, duration=DURATION, warmup=WARMUP, backend=backend,
        request_rate=80.0, max_batch=8, be_clients=1,
    ))).result


def main() -> None:
    results = {}
    for backend in BACKENDS:
        print(f"running {backend} ...")
        results[backend] = serve(backend)

    rows = []
    for backend, r in results.items():
        slo = r.ttft_slo
        ttft = f"{r.ttft.p95*1e3:.1f}" if r.ttft.count else "-"
        verdict = ("OK" if r.ttft.count and r.ttft.p95 <= slo else
                   "MISS" if r.ttft.count else "-")
        tpot = f"{r.tpot.p50*1e3:.2f}" if r.tpot.count else "-"
        rows.append([
            backend,
            f"{r.requests_completed}/{r.requests_arrived}",
            ttft, verdict, tpot,
            f"{r.decode_tokens_per_sec:.1f}",
            str(r.be_iterations(WARMUP)),
        ])
    print()
    print(format_table(
        ["backend", "served", "ttft p95 (ms)", "slo", "tpot p50 (ms)",
         "decode tok/s", "BE iters"], rows))
    print(f"\nttft slo: {results['orion'].ttft_slo*1e3:.1f} ms "
          f"(3x the solo prefill latency of the largest admissible prompt)")

    orion, temporal = results["orion"], results["temporal"]
    gain = (orion.decode_tokens_per_sec
            / max(temporal.decode_tokens_per_sec, 1e-9))
    print(f"orion decode goodput is {gain:.1f}x temporal sharing's, "
          f"with {orion.backend_stats['prefill_deferrals']} best-effort "
          f"kernels held off prefill steps.")


if __name__ == "__main__":
    main()
