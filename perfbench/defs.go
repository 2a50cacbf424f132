package main

// metricDef names one reported metric. The lists below are the ones
// BENCHMARK.json declares, in the same order (a test keeps them equal).
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a user of the system sees, reported by every
// workload from untraced runs.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"cpu_us_per_op", "us", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer are the metrics a traced run reports. A workload reports 0 for
// a layer it does not exercise.
var perLayer = []metricDef{
	// Workload figures, from the untraced half of the traced run.
	{"emu_attach_p50_ms", "ms", "lower"},
	{"emu_attach_p99_ms", "ms", "lower"},
	{"emu_shed_frac", "ratio", "lower"},
	{"emu_availability", "ratio", "higher"},
	{"emu_goodput_mbps", "Mbit/s", "higher"},
	{"attach_p50_ms", "ms", "lower"},
	{"attach_p99_ms", "ms", "lower"},
	{"report_p50_ms", "ms", "lower"},
	{"report_p99_ms", "ms", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"fail_frac", "ratio", "lower"},
	{"trace_overhead_frac", "ratio", "lower"},
	// Counts from obs counter deltas, per repetition or per op.
	{"netem.delivered_per_op", "count", "lower"},
	{"netem.drop_frac", "ratio", "lower"},
	{"broker.grants", "count", "higher"},
	{"broker.sheds", "count", "lower"},
	{"broker.reports", "count", "higher"},
	{"broker.authcache_hit_ratio", "ratio", "higher"},
	{"broker.batch_items_per_flush", "count", "higher"},
	{"broker.resume_ratio", "ratio", "higher"},
	{"ue.attempts_per_arrival", "count", "lower"},
	{"ue.retries", "count", "lower"},
	{"ue.giveups", "count", "lower"},
	{"billing.reports_per_op", "count", "higher"},
	{"billing.mismatches", "count", "lower"},
	{"epc.nas_messages_per_op", "count", "lower"},
	{"epc.attach_failures", "count", "lower"},
	{"wire.frames_per_op", "count", "lower"},
	{"wire.bytes_per_op", "B", "lower"},
	{"wire.retries", "count", "lower"},
	{"wire.redials", "count", "lower"},
	{"runtime.mallocs_per_op", "count", "lower"},
	{"runtime.alloc_kb_per_op", "KB", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	// Busy time from the traced run's CPU profile, per op.
	{"netem.cpu_us_per_op", "us", "lower"},
	{"mptcp.cpu_us_per_op", "us", "lower"},
	{"pki.cpu_us_per_op", "us", "lower"},
	{"sap.cpu_us_per_op", "us", "lower"},
	{"broker.cpu_us_per_op", "us", "lower"},
	{"billing.cpu_us_per_op", "us", "lower"},
	{"ue.cpu_us_per_op", "us", "lower"},
	{"epc.cpu_us_per_op", "us", "lower"},
	{"wire.cpu_us_per_op", "us", "lower"},
	{"testbed.cpu_us_per_op", "us", "lower"},
	{"runtime.gc_cpu_us_per_op", "us", "lower"},
	{"other.cpu_us_per_op", "us", "lower"},
	// Span self times on attach-loopback, p50.
	{"ue.attach_self_ms", "ms", "lower"},
	{"wire.nas_rtt_self_ms", "ms", "lower"},
	{"epc.attach_self_ms", "ms", "lower"},
	{"sap.forward_ms", "ms", "lower"},
	{"sap.handle_response_ms", "ms", "lower"},
	{"broker.handle_auth_ms", "ms", "lower"},
	{"wire.broker_call_self_ms", "ms", "lower"},
	{"epc.activate_ms", "ms", "lower"},
	{"billing.report_upload_ms", "ms", "lower"},
}

// exactCounts are the per-layer counts that repeat exactly for a seed on
// the emulated workloads (storm and drive); the steadiness check asserts
// it. Runtime allocation figures are left out: sync.Pool contents and GC
// timing make them vary slightly between runs.
var exactCounts = []string{
	"netem.delivered_per_op", "netem.drop_frac",
	"broker.grants", "broker.sheds", "broker.reports", "broker.authcache_hit_ratio",
	"broker.batch_items_per_flush", "broker.resume_ratio",
	"ue.attempts_per_arrival", "ue.retries", "ue.giveups",
	"billing.reports_per_op", "billing.mismatches",
	"epc.nas_messages_per_op", "epc.attach_failures",
	"wire.frames_per_op", "wire.bytes_per_op", "wire.retries", "wire.redials",
}
