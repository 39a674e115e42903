package bench

import "graphene/internal/metrics"

// RenderMetrics reports the registry accumulated while the experiments
// ran — per-syscall and per-RPC-type latency histograms from the traced
// Graphene workloads (the paper's tables give per-benchmark means; this
// is the latency *shape* behind them, p50/p90/p99 per primitive).
func RenderMetrics() string {
	return "Latency histograms (per traced primitive, this run)\n" +
		metrics.Default.Snapshot().Text()
}
