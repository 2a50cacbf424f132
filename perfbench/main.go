// Command perfbench is the repository's benchmark. It runs one workload
// through the public testbed API, checks its outputs and prints every
// metric by name with its unit; the last line of standard output is one
// JSON object {"correct", "attempted", "failed", "metrics"}.
//
//	perfbench --workload storm|drive|attach-loopback --seed N --seconds S --trace 0|1
//
// With --trace 0 it prints the end-to-end metrics of an untraced run.
// With --trace 1 it runs the workload untraced, then again with a CPU
// profile and span tracing, and prints the per-layer metrics. Either way
// it writes every figure it took, with the machine it ran on, to a JSON
// artifact (--artifact). With --steady N it runs itself N times on one
// seed and prints each metric's median and quartiles, failing if an
// emulated metric or an exact count differs between runs.
//
// See README.md for the workloads and the metric definitions.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"syscall"
	"time"

	"cellbricks/internal/obs"
)

const (
	// defaultSeed is the seed figures are tuned and quoted on.
	defaultSeed = 7
	// heldOutSeed is kept for confirming a claim on a seed it was not
	// tuned on.
	heldOutSeed = 1009
)

func main() { os.Exit(run(os.Args[1:])) }

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	artifact string
	steady   int
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "storm, drive or attach-loopback")
	fs.Int64Var(&o.seed, "seed", defaultSeed, fmt.Sprintf("workload seed (held-out seed: %d)", heldOutSeed))
	fs.Float64Var(&o.seconds, "seconds", 30, "measured seconds")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	fs.StringVar(&o.artifact, "artifact", "", "artifact path (default .bench_build/artifacts/<workload>-seed<N>-trace<T>.json)")
	fs.IntVar(&o.steady, "steady", 0, "run the benchmark this many times on one seed and check steadiness")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if trace != 0 && trace != 1 || o.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1 and --seconds positive")
		return 2
	}
	o.trace = trace == 1
	if o.artifact == "" {
		o.artifact = filepath.Join(".bench_build", "artifacts",
			fmt.Sprintf("%s-seed%d-trace%d.json", o.workload, o.seed, trace))
	}
	if o.steady > 0 {
		return steady(o)
	}
	w, err := newWorkload(o.workload, o.seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	res, err := bench(w, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := writeArtifact(o.artifact, res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	for _, c := range res.Checks {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", c)
	}
	names := endToEnd
	if o.trace {
		names = perLayer
	}
	line, err := resultLine(res, names)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	printTable(res, names)
	fmt.Println(line)
	if !res.Correct {
		return 1
	}
	return 0
}

// pass is one measurement pass: repetitions of a workload, untraced or
// traced.
type pass struct {
	reps    []repStat
	checks  []string
	emu     map[string]float64
	lat     map[string][]float64
	obs     map[string]float64 // obs counter deltas summed over repetitions
	profile []byte
	spans   map[string][]time.Duration
}

// repStat is the host cost of one repetition.
type repStat struct {
	ops, failed             int
	cpu, wall               time.Duration
	mallocs, allocBytes, gc uint64
}

func (p *pass) totals() (ops, failed int, cpu, wall time.Duration) {
	for _, r := range p.reps {
		ops += r.ops
		failed += r.failed
		cpu += r.cpu
		wall += r.wall
	}
	return
}

// repCPU lists CPU µs per operation of each repetition.
func (p *pass) repCPU() []float64 {
	v := make([]float64, len(p.reps))
	for i, r := range p.reps {
		v[i] = perOp(float64(r.cpu)/float64(time.Microsecond), r.ops)
	}
	return v
}

// cpuPerOp is the interquartile mean over repetitions of CPU µs per
// operation.
func (p *pass) cpuPerOp() float64 { return interquartileMean(p.repCPU()) }

// runPass measures repetitions of w for the given wall-clock budget,
// after one unmeasured, untraced warm-up repetition. It measures at least
// two repetitions, so repeatability is checked on every run. The CPU
// profile of a traced pass spans the measured loop, each repetition's
// open and close included.
//
// With setups non-nil it also times one set-up step before every measured
// repetition, so the set-up figures sample the machine across the whole
// run rather than in one burst at its start.
func runPass(w workload, budget time.Duration, traced bool, seed int64, setups *[]float64) (*pass, error) {
	var tr *obs.Tracer
	var ids *obs.SpanIDSource
	if traced {
		tr, ids = obs.NewTracer(nil), obs.NewSpanIDSource(seed)
	}
	p := &pass{emu: map[string]float64{}, lat: map[string][]float64{}, obs: map[string]float64{}}
	if err := w.open(nil, nil); err != nil {
		return nil, fmt.Errorf("open: %w", err)
	}
	warm := w.rep()
	w.close()
	p.checks = append(p.checks, warm.checks...)
	var prof bytes.Buffer
	if traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
	}
	var ms0, ms1 runtime.MemStats
	start := time.Now()
	for len(p.reps) < 2 || time.Since(start) < budget {
		// Each repetition starts from a collected heap, so garbage and
		// finalizers (closed connections) of one are not paid by the next.
		runtime.GC()
		if setups != nil {
			t0 := time.Now()
			if err := w.setup(); err != nil {
				return nil, fmt.Errorf("setup: %w", err)
			}
			*setups = append(*setups, time.Since(t0).Seconds())
		}
		if err := w.open(tr, ids); err != nil {
			return nil, fmt.Errorf("open: %w", err)
		}
		o0 := obs.Default().Snapshot()
		runtime.ReadMemStats(&ms0)
		c0, w0 := cpuTime(), time.Now()
		out := w.rep()
		st := repStat{ops: out.ops, failed: out.failed, cpu: cpuTime() - c0, wall: time.Since(w0)}
		runtime.ReadMemStats(&ms1)
		w.close()
		st.mallocs = ms1.Mallocs - ms0.Mallocs
		st.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
		st.gc = uint64(ms1.NumGC - ms0.NumGC)
		for k, v := range counterDelta(o0, obs.Default().Snapshot()) {
			p.obs[k] += v
		}
		p.reps = append(p.reps, st)
		p.checks = append(p.checks, out.checks...)
		if len(p.reps) == 1 {
			p.emu = out.emu
		}
		for k, v := range out.emu {
			if p.emu[k] != v {
				p.checks = append(p.checks, fmt.Sprintf("%s differs between repetitions: %v then %v", k, p.emu[k], v))
			}
		}
		for k, v := range out.lat {
			p.lat[k] = append(p.lat[k], v...)
		}
	}
	if traced {
		pprof.StopCPUProfile()
		p.profile = prof.Bytes()
		p.spans = selfTimes(tr.Events())
	}
	return p, nil
}

// cpuTime is the process's CPU time so far: user plus system, all
// threads, the garbage collector's included.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// result is everything one run measured; it is also the artifact.
type result struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Trace    bool               `json:"trace"`
	Env      map[string]any     `json:"env"`
	Correct  bool               `json:"correct"`
	Attempt  int                `json:"attempted"`
	Failed   int                `json:"failed"`
	Checks   []string           `json:"checks,omitempty"`
	Metrics  map[string]float64 `json:"metrics"`
	// Setups lists every timed set-up step of an untraced run, in s.
	Setups []float64 `json:"setups,omitempty"`
	// RepCPU lists CPU µs per op of every measured repetition.
	RepCPU []float64 `json:"rep_cpu_us_per_op,omitempty"`
	// Layers is the traced run's CPU attribution per package in µs per
	// op, every internal package listed; the per-layer metrics fold the
	// unnamed ones into other.cpu_us_per_op.
	Layers map[string]float64 `json:"layers,omitempty"`
	// Spans lists the traced run's span self times: p50 in ms and count.
	Spans map[string][2]float64 `json:"spans,omitempty"`
}

// bench runs one benchmark invocation.
func bench(w workload, o options) (*result, error) {
	res := &result{Workload: o.workload, Seed: o.seed, Trace: o.trace, Env: env(o), Metrics: map[string]float64{}}
	budget := time.Duration(o.seconds * float64(time.Second))
	if !o.trace {
		var setups []float64
		p, err := runPass(w, budget, false, o.seed, &setups)
		if err != nil {
			return nil, err
		}
		res.fill(p)
		res.Metrics["setup_s"] = interquartileMean(setups)
		res.Setups = setups
		res.Metrics["peak_rss_mb"] = peakRSSMB()
		return res, nil
	}
	// Traced runs split the budget: untraced first, for the overhead
	// baseline and the wall-clock figures, then traced.
	plain, err := runPass(w, budget/2, false, o.seed, nil)
	if err != nil {
		return nil, err
	}
	res.fill(plain)
	traced, err := runPass(w, budget/2, true, o.seed, nil)
	if err != nil {
		return nil, err
	}
	if err := res.fillLayers(traced); err != nil {
		return nil, err
	}
	res.Metrics["trace_overhead_frac"] = ratio(traced.cpuPerOp(), plain.cpuPerOp()) - 1
	ops, failed, _, _ := traced.totals()
	res.Attempt += ops
	res.Failed += failed
	res.Checks = append(res.Checks, traced.checks...)
	res.Correct = len(res.Checks) == 0
	res.Metrics["fail_frac"] = ratio(float64(res.Failed), float64(res.Attempt))
	return res, nil
}

// fill records the end-to-end metrics of an untraced pass, and the
// workload figures that per-layer runs report from it.
func (r *result) fill(p *pass) {
	ops, failed, _, wall := p.totals()
	r.Attempt, r.Failed = ops, failed
	r.Checks = p.checks
	r.Correct = len(p.checks) == 0
	m := r.Metrics
	m["cpu_us_per_op"] = p.cpuPerOp()
	r.RepCPU = p.repCPU()
	m["fail_frac"] = ratio(float64(failed), float64(ops))
	for k, v := range p.emu {
		m[k] = v
	}
	for stem, v := range p.lat {
		tail := min(99, tailPercentile(len(v)))
		m[stem+"_p50_ms"] = percentile(v, 50)
		m[stem+"_p99_ms"] = percentile(v, tail)
		m[stem+"_samples"] = float64(len(v))
		m[stem+"_tail_pct"] = tail
	}
	if len(p.lat) > 0 {
		m["ops_per_s"] = float64(ops) / wall.Seconds()
	}
	r.Metrics["reps"] = float64(len(p.reps))
}

// fillLayers records the per-layer metrics of a traced pass: counts,
// CPU attribution from the profile, and span self times.
func (r *result) fillLayers(p *pass) error {
	ops, _, cpu, _ := p.totals()
	m := r.Metrics
	layerCounts(m, p)
	stacks, err := parseCPUProfile(p.profile)
	if err != nil {
		return err
	}
	r.Layers = map[string]float64{}
	var profiled int64
	for layer, ns := range attribute(stacks) {
		profiled += ns
		r.Layers[layer] = perOp(float64(ns)/1e3, ops)
	}
	for _, l := range cpuLayers {
		m[l+".cpu_us_per_op"] = 0
	}
	m["runtime.gc_cpu_us_per_op"] = 0
	for layer, us := range r.Layers {
		switch {
		case layer == bucketGC:
			m["runtime.gc_cpu_us_per_op"] += us
		case slices.Contains(cpuLayers, layer):
			m[layer+".cpu_us_per_op"] += us
		default:
			m["other.cpu_us_per_op"] += us
		}
	}
	m["profiled_cpu_us_per_op"] = perOp(float64(profiled)/1e3, ops)
	m["traced_cpu_us_per_op"] = perOp(float64(cpu)/float64(time.Microsecond), ops)

	r.Spans = map[string][2]float64{}
	for name, v := range p.spans {
		f := make([]float64, len(v))
		for i, d := range v {
			f[i] = ms(d)
		}
		r.Spans[name] = [2]float64{median(f), float64(len(f))}
	}
	for metric, span := range spanMetrics {
		m[metric] = r.Spans[span][0]
	}
	return nil
}

// layerCounts records the count metrics of a pass in m: obs counter
// deltas and runtime allocation figures, per repetition (absolute
// counts) or per operation (the _per_op and ratio figures).
func layerCounts(m map[string]float64, p *pass) {
	ops, _, _, _ := p.totals()
	perRep := func(v float64) float64 { return v / float64(len(p.reps)) }
	d := p.obs
	m["netem.delivered_per_op"] = perOp(d["netem_packets_delivered_total"], ops)
	m["netem.drop_frac"] = ratio(d["netem_drops_loss_total"]+d["netem_drops_queue_total"]+d["netem_drops_down_total"], d["netem_packets_sent_total"])
	grants := d["broker_attach_granted_total"] + d["broker_resume_granted_total"]
	m["broker.grants"] = perRep(grants)
	m["broker.sheds"] = perRep(d["broker_admission_rate_shed_total"] + d["broker_admission_queue_shed_total"] + d["broker_attach_shed_total"])
	m["broker.reports"] = perRep(d["broker_reports_ingested_total"])
	m["broker.authcache_hit_ratio"] = ratio(d["broker_authcache_hits_total"], d["broker_authcache_hits_total"]+d["broker_authcache_misses_total"])
	m["broker.batch_items_per_flush"] = ratio(d["broker_batch_items_total"], d["broker_batch_flushes_total"])
	m["broker.resume_ratio"] = ratio(d["broker_resume_granted_total"], grants)
	m["ue.retries"] = perRep(d["ue_attach_retries_total"])
	m["ue.giveups"] = perRep(d["ue_attach_giveups_total"])
	m["billing.reports_per_op"] = perOp(d["broker_reports_ingested_total"], ops)
	m["billing.mismatches"] = perRep(d["broker_report_mismatches_total"])
	m["epc.nas_messages_per_op"] = perOp(d["epc_nas_messages_total"], ops)
	m["epc.attach_failures"] = perRep(d["epc_attach_failures_total"])
	m["wire.frames_per_op"] = perOp(d["wire_frames_sent_total"]+d["wire_frames_received_total"], ops)
	m["wire.bytes_per_op"] = perOp(d["wire_bytes_sent_total"]+d["wire_bytes_received_total"], ops)
	m["wire.retries"] = perRep(d["wire_client_retries_total"])
	m["wire.redials"] = perRep(d["wire_client_redials_total"])
	var mallocs, alloc, gc float64
	for _, s := range p.reps {
		mallocs += float64(s.mallocs)
		alloc += float64(s.allocBytes)
		gc += float64(s.gc)
	}
	m["runtime.mallocs_per_op"] = perOp(mallocs, ops)
	m["runtime.alloc_kb_per_op"] = perOp(alloc/1024, ops)
	m["runtime.gc_cycles"] = perRep(gc)
}

// cpuLayers are the packages whose CPU share is a per-layer metric.
var cpuLayers = []string{"netem", "mptcp", "pki", "sap", "broker", "billing", "ue", "epc", "wire", "testbed", "other"}

// spanMetrics maps per-layer metric names to the span whose median self
// time they report.
var spanMetrics = map[string]string{
	"ue.attach_self_ms":        "ue/attach-sap",
	"wire.nas_rtt_self_ms":     "wire/nas-rtt",
	"epc.attach_self_ms":       "epc/attach",
	"sap.forward_ms":           "sap/forward-request",
	"sap.handle_response_ms":   "sap/handle-response",
	"broker.handle_auth_ms":    "broker/handle-auth",
	"wire.broker_call_self_ms": "broker/authenticate",
	"epc.activate_ms":          "epc/activate",
	"billing.report_upload_ms": "billing/report-upload",
}

func env(o options) map[string]any {
	return map[string]any{
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"nproc":         runtime.NumCPU(),
		"go":            runtime.Version(),
		"goos_goarch":   runtime.GOOS + "/" + runtime.GOARCH,
		"shards":        1,
		"seed":          o.seed,
		"held_out_seed": heldOutSeed,
		"seconds":       o.seconds,
	}
}

func writeArtifact(path string, r *result) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("artifact: %w", err)
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("artifact: %w", err)
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// resultLine renders the final output line with the named metrics.
func resultLine(r *result, names []metricDef) (string, error) {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]val{}
	for _, d := range names {
		// A metric of a layer the workload does not exercise reads 0.
		metrics[d.name] = val{r.Metrics[d.name], d.unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{r.Correct, max(r.Attempt, 1), r.Failed, metrics})
	return string(b), err
}

// printTable prints the named metrics for a reader, above the result
// line.
func printTable(r *result, names []metricDef) {
	fmt.Printf("perfbench workload=%s seed=%d trace=%t gomaxprocs=%d attempted=%d failed=%d\n",
		r.Workload, r.Seed, r.Trace, runtime.GOMAXPROCS(0), r.Attempt, r.Failed)
	for _, d := range names {
		fmt.Printf("  %-32s %14.6g %s\n", d.name, r.Metrics[d.name], d.unit)
	}
}
