package main

// metricDef names one metric. The names are the contract: BENCHMARK.json
// lists exactly these (bench_test.go checks), and later PRs quote them.
// Bound is set on end-to-end metrics only: the share of the parent's median
// by which the metric may worsen before -compare calls it regressed.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd is what a user of a training deployment sees, per workload, from
// the untraced pass. Failed rounds are not a metric here: they are the
// result's attempted/failed counts, and any rise is a regression. The five
// time metrics are scaled to the nominal host (yardstick.go); their bounds
// are the widest the contract allows because even so they spread by up to
// 16% while the host's neighbours are busy. Allocation counts repeat to four
// digits and keep a tight bound. README.md has the measured spreads.
var endToEnd = []metricDef{
	{"rounds_per_s", "rounds/s", higher, 0.25},
	{"round_ms_p50", "ms", lower, 0.25},
	{"round_ms_p95", "ms", lower, 0.25},
	{"cpu_ms_per_round", "ms", lower, 0.25},
	{"allocs_per_round", "count", lower, 0.02},
	{"alloc_kb_per_round", "KB", lower, 0.02},
	{"peak_rss_mb", "MB", lower, 0.15},
	{"setup_s", "s", lower, 0.25},
}

// perLayer comes from the traced pass: decorator spans around what the
// benchmark hands the cluster, and probes of each layer's public functions
// at the workload's shapes. The layer is the name's prefix. README.md says
// which end-to-end metric each should move, on which workload.
var perLayer = []metricDef{
	{Name: "gar.round_ms", Unit: "ms", Better: lower},
	{Name: "gar.round_share", Unit: "ratio", Better: lower},
	{Name: "gar.calls", Unit: "count", Better: lower},
	{Name: "gar.errors", Unit: "count", Better: lower},
	{Name: "gar.aggregate_ms", Unit: "ms", Better: lower},
	{Name: "gar.aggregate_mb_s", Unit: "MB/s", Better: higher},
	{Name: "gar.allocs_per_call", Unit: "count", Better: lower},
	{Name: "tensor.median_ns_per_col", Unit: "ns", Better: lower},
	{Name: "tensor.sqdist_gb_s", Unit: "GB/s", Better: higher},
	{Name: "nn.gradient_ms", Unit: "ms", Better: lower},
	{Name: "nn.gradient_allocs", Unit: "count", Better: lower},
	{Name: "nn.setparams_us", Unit: "us", Better: lower},
	{Name: "opt.step_ms", Unit: "ms", Better: lower},
	{Name: "opt.round_share", Unit: "ratio", Better: lower},
	{Name: "data.sample_us", Unit: "us", Better: lower},
	{Name: "attack.forge_us", Unit: "us", Better: lower},
	{Name: "ps.round_self_ms", Unit: "ms", Better: lower},
	{Name: "cluster.round_self_ms", Unit: "ms", Better: lower},
	{Name: "cluster.start_ms", Unit: "ms", Better: lower},
	{Name: "cluster.close_ms", Unit: "ms", Better: lower},
	{Name: "cluster.goroutines", Unit: "count", Better: lower},
	{Name: "cluster.deadline_rounds", Unit: "count", Better: lower},
	{Name: "cluster.short_rounds", Unit: "count", Better: lower},
	{Name: "transport.tcp_gradient_mb_s", Unit: "MB/s", Better: higher},
	{Name: "transport.tcp_allocs_per_msg", Unit: "count", Better: lower},
	{Name: "transport.tcp_alloc_kb_per_msg", Unit: "KB", Better: lower},
	{Name: "transport.split_encode_mb_s", Unit: "MB/s", Better: higher},
	{Name: "transport.decode_reassemble_mb_s", Unit: "MB/s", Better: higher},
	{Name: "transport.udp_send_mb_s", Unit: "MB/s", Better: higher},
	{Name: "transport.udp_e2e_mb_s", Unit: "MB/s", Better: higher},
	{Name: "transport.udp_send_allocs_per_packet", Unit: "count", Better: lower},
	{Name: "transport.udp_recv_allocs_per_packet", Unit: "count", Better: lower},
	{Name: "transport.udp_lost_packet_share", Unit: "ratio", Better: lower},
	{Name: "transport.recoup_fill_mb_s", Unit: "MB/s", Better: higher},
	{Name: "transport.udp_fanin_delivered_share", Unit: "ratio", Better: higher},
	{Name: "transport.packets_per_gradient", Unit: "count", Better: lower},
	{Name: "transport.wire_kb_per_round", Unit: "KB", Better: lower},
	{Name: "scenario.cells_per_s", Unit: "cells/s", Better: higher},
	{Name: "scenario.rerun_identical", Unit: "count", Better: higher},
	{Name: "core.run_ms", Unit: "ms", Better: lower},
	{Name: "trace.rounds_per_s", Unit: "rounds/s", Better: higher},
}
