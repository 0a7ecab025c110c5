"""Experiment F7 — Fig. 7: inference latency vs DRAM bandwidth (+ insets).

Llama-405B, B=8, bf16, I/O 200/200 tokens, DRAM latency 30 ns, TP = number
of SPUs (64).

Paper claims asserted:
* latency falls monotonically with bandwidth, ~17× from 0.5 to 32 TBps,
* scaling saturates beyond ~8 TBps (the DRAM-latency-bound limit),
* inset (a): achieved PFLOP/s/SPU degrades steadily (near-linearly) as DRAM
  latency sweeps 10 → 200 ns at 16 TBps,
* inset (b): increasing batch trades latency for throughput, with the GPU
  reference dominated at equal batch.
"""

from __future__ import annotations

from repro import scenarios


def test_fig7(run_once):
    def run_all():
        return {
            name: scenarios.get(name).run()
            for name in (
                "fig7-bandwidth",
                "fig7-dram-latency",
                "fig7-batch",
                "fig7-gpu",
            )
        }

    fig7 = run_once(run_all)
    bandwidths = fig7["fig7-bandwidth"].axis("system.dram_bandwidth_tbps")
    lat = fig7["fig7-bandwidth"].series("latency")
    dram_latencies_ns = fig7["fig7-dram-latency"].axis("system.dram_latency_ns")
    pf = fig7["fig7-dram-latency"].series("achieved_pflops_per_pu")
    batches = fig7["fig7-batch"].axis("workload.batch")
    batch_latencies = fig7["fig7-batch"].series("latency")
    batch_pf = fig7["fig7-batch"].series("achieved_pflops_per_pu")
    (gpu_latency,) = fig7["fig7-gpu"].series("latency")

    print()
    print("BW sweep:", [f"{b}TB:{l:.2f}s" for b, l in zip(bandwidths, lat)])
    print("latency sweep PF/SPU:", [f"{n:.0f}ns:{p:.3f}" for n, p in zip(dram_latencies_ns, pf)])
    print("batch sweep:", [f"B{b}:{l:.2f}s/{p:.2f}PF" for b, l, p in zip(batches, batch_latencies, batch_pf)])
    print(f"GPU reference (B=8): {gpu_latency:.2f}s")

    # Monotone improvement with bandwidth.
    assert all(b <= a for a, b in zip(lat, lat[1:]))
    # Paper: 0.5 TBps (8.8 s) -> 32 TBps (0.52 s) is ~17x.
    assert 12 <= lat[0] / lat[-1] <= 25
    # Saturation beyond 8 TBps: the 16->32 TBps step buys far less than the
    # 0.5->1 TBps step (relative).
    gain_low = lat[0] / lat[1]
    i16 = bandwidths.index(16)
    gain_high = lat[i16] / lat[i16 + 1]
    assert gain_low > 1.7
    assert gain_high < 1.5

    # Inset (a): throughput degrades steadily with DRAM latency, roughly
    # linear in the inverse sense: 10 ns -> 200 ns loses ~4-6x.
    assert all(b <= a for a, b in zip(pf, pf[1:]))
    assert 3.0 <= pf[0] / pf[-1] <= 8.0

    # Inset (b): batch raises both latency and achieved throughput.
    assert all(b >= a for a, b in zip(batch_latencies, batch_latencies[1:]))
    assert all(b >= a for a, b in zip(batch_pf, batch_pf[1:]))
    # GPU reference at B=8 is several times slower than the SPU point.
    i8 = batches.index(8)
    assert gpu_latency / batch_latencies[i8] > 5.0
