package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"runtime/pprof"
	"testing"
	"time"

	"cellbricks/internal/apps"
	"cellbricks/internal/obs"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{10000, 99.9}, {9999, 99}, {1000, 99}, {999, 95}, {200, 95},
		{199, 90}, {100, 90}, {99, 75}, {40, 75}, {39, 50}, {20, 50}, {19, 0}, {0, 0},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

// The benchmark computes percentiles itself; they must agree with the
// program's own rule, so emulated figures match what Render prints.
func TestPercentileMatchesProgram(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 1; n < 60; n++ {
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.ExpFloat64() * 30
		}
		for _, p := range []float64{0, 25, 50, 90, 99, 99.9, 100} {
			if got, want := percentile(v, p), apps.PercentileFloats(v, p); math.Abs(got-want) > 1e-9 {
				t.Fatalf("n=%d p=%v: percentile %v, program %v", n, p, got, want)
			}
		}
	}
}

// quartiles follows Python's statistics.quantiles(v, n=4); the expected
// values were produced by it.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		v    []float64
		want [3]float64
	}{
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{1, 2, 3}, [3]float64{1, 2, 3}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1, 4, 2, 3, 9, 7}, [3]float64{2, 4, 7}},
		{[]float64{0.3, 0.1, 0.2, 0.25, 0.9}, [3]float64{0.15, 0.25, 0.6}},
	} {
		q1, q2, q3 := quartiles(c.v)
		got := [3]float64{q1, q2, q3}
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", c.v, got, c.want)
				break
			}
		}
	}
}

func TestInterquartileMean(t *testing.T) {
	for _, c := range []struct {
		v    []float64
		want float64
	}{
		{[]float64{5}, 5},
		{[]float64{1, 3}, 2},
		{[]float64{100, 1, 2, 3, 4, 5, 6, -50}, 3.5}, // middle four of eight
		{[]float64{2, 2, 2, 3, 3, 3, 3, 3}, 2.75},    // moves with the mix of two clusters
	} {
		if got := interquartileMean(c.v); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("interquartileMean(%v) = %v, want %v", c.v, got, c.want)
		}
	}
}

func span(trace, id, parent uint64, cat, name string, start, end time.Duration) obs.TraceEvent {
	return obs.TraceEvent{Cat: cat, Name: name, Start: start, Dur: end - start, Trace: trace, Span: id, Parent: parent}
}

// A traced attach as the loopback workload records it: the benchmark's
// nas-rtt span and the AGW's epc/attach span are both children of the UE
// span, as are broker/authenticate and broker/handle-auth of epc/attach;
// containment nests the callee under the wrapper.
func TestSelfTimesSyntheticTree(t *testing.T) {
	const tr, root = 1, 1
	events := []obs.TraceEvent{
		span(tr, 2, root, "ue", "attach-sap", 0, 100),
		span(tr, 3, 2, "wire", "nas-rtt", 10, 80),
		span(tr, 4, 2, "epc", "attach", 20, 70),
		span(tr, 5, 4, "broker", "authenticate", 30, 60),
		span(tr, 6, 4, "broker", "handle-auth", 35, 55),
		span(tr, 7, 4, "epc", "activate", 62, 68),
		span(tr, 8, 2, "billing", "bind-session", 85, 95),
		// Another trace with the same shape must not mix in.
		span(9, 10, 9, "ue", "attach-sap", 0, 1000),
		{Cat: "x", Name: "instant", Start: 50, Instant: true, Trace: tr, Span: 11, Parent: 2},
	}
	got := selfTimes(events)
	want := map[string][]time.Duration{
		"ue/attach-sap":        {20, 1000},
		"wire/nas-rtt":         {20},
		"epc/attach":           {14},
		"broker/authenticate":  {10},
		"broker/handle-auth":   {20},
		"epc/activate":         {6},
		"billing/bind-session": {10},
	}
	if len(got) != len(want) {
		t.Fatalf("got spans %v, want %v", got, want)
	}
	for k, w := range want {
		g := got[k]
		if len(g) != len(w) {
			t.Fatalf("%s: got %v, want %v", k, g, w)
		}
		for i := range w {
			if g[i] != w[i] {
				t.Errorf("%s: got %v, want %v", k, g, w)
			}
		}
	}
}

// Overlapping children are subtracted once.
func TestSelfTimesOverlappingChildren(t *testing.T) {
	got := selfTimes([]obs.TraceEvent{
		span(1, 2, 1, "p", "parent", 0, 100),
		span(1, 3, 2, "c", "a", 10, 50),
		span(1, 4, 2, "c", "b", 40, 60),
		span(1, 5, 2, "c", "late", 90, 120), // clipped to the parent
	})
	if g := got["p/parent"]; len(g) != 1 || g[0] != 40 {
		t.Fatalf("parent self time %v, want [40]", g)
	}
}

// protoWriter builds the handful of profile.proto messages the tests need.
type protoWriter struct{ b []byte }

func (w *protoWriter) varint(field int, v uint64) {
	w.b = binary.AppendUvarint(w.b, uint64(field<<3))
	w.b = binary.AppendUvarint(w.b, v)
}

func (w *protoWriter) bytes(field int, p []byte) {
	w.b = binary.AppendUvarint(w.b, uint64(field<<3|2))
	w.b = binary.AppendUvarint(w.b, uint64(len(p)))
	w.b = append(w.b, p...)
}

func (w *protoWriter) packed(field int, vs ...uint64) {
	var p []byte
	for _, v := range vs {
		p = binary.AppendUvarint(p, v)
	}
	w.bytes(field, p)
}

// syntheticProfile encodes a CPU profile with one location per function
// (plus one location holding an inlined pair), and samples over them.
func syntheticProfile(t *testing.T, stacks [][]string, inlined [2]string, inlinedNS int64, ns []int64) []byte {
	t.Helper()
	var p protoWriter
	strs := []string{""}
	idx := func(s string) uint64 {
		for i, x := range strs {
			if x == s {
				return uint64(i)
			}
		}
		strs = append(strs, s)
		return uint64(len(strs) - 1)
	}
	for _, st := range [][2]string{{"samples", "count"}, {"cpu", "nanoseconds"}} {
		var vt protoWriter
		vt.varint(1, idx(st[0]))
		vt.varint(2, idx(st[1]))
		p.bytes(1, vt.b)
	}
	funcs := map[string]uint64{}
	fn := func(name string) uint64 {
		if id, ok := funcs[name]; ok {
			return id
		}
		id := uint64(len(funcs) + 1)
		funcs[name] = id
		var f protoWriter
		f.varint(1, id)
		f.varint(2, idx(name))
		p.bytes(5, f.b)
		return id
	}
	nextLoc := uint64(0)
	location := func(names ...string) uint64 {
		nextLoc++
		var l protoWriter
		l.varint(1, nextLoc)
		for _, n := range names {
			var line protoWriter
			line.varint(1, fn(n))
			l.bytes(4, line.b)
		}
		p.bytes(4, l.b)
		return nextLoc
	}
	sample := func(locs []uint64, v int64) {
		var s protoWriter
		s.packed(1, locs...)
		s.packed(2, 1, uint64(v))
		p.bytes(2, s.b)
	}
	for i, st := range stacks {
		var locs []uint64
		for _, f := range st {
			locs = append(locs, location(f))
		}
		sample(locs, ns[i])
	}
	sample([]uint64{location(inlined[0], inlined[1]), location("cellbricks/internal/testbed.RunStorm")}, inlinedNS)
	for _, s := range strs {
		p.bytes(6, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(p.b); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return gz.Bytes()
}

func TestAttributionInnermostInternalFrame(t *testing.T) {
	stacks := [][]string{
		{"crypto/internal/edwards25519.(*Point).ScalarBaseMult", "crypto/ed25519.Sign",
			"cellbricks/internal/pki.(*KeyPair).Sign", "cellbricks/internal/billing.Seal", "cellbricks/internal/testbed.RunStorm"},
		{"runtime.memmove", "cellbricks/internal/mptcp.(*Conn).onSegment", "cellbricks/internal/netem.(*Sim).deliver"},
		{"cellbricks/internal/netem.(*wheel).pop", "cellbricks/internal/netem.(*Sim).RunUntil"},
		{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"},
		{"syscall.Syscall", "net.(*conn).Read", "main.main"},
	}
	ns := []int64{50e6, 20e6, 10e6, 7e6, 3e6}
	// An inlined pki helper inside a sap frame is charged to pki.
	data := syntheticProfile(t, stacks, [2]string{"cellbricks/internal/pki.x25519", "cellbricks/internal/sap.(*UEState).NewAttachRequest"}, 4e6, ns)
	parsed, err := parseCPUProfile(data)
	if err != nil {
		t.Fatal(err)
	}
	got := attribute(parsed)
	want := map[string]int64{"pki": 54e6, "mptcp": 20e6, "netem": 10e6, bucketGC: 7e6, bucketOther: 3e6}
	var sum, total int64
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s: got %d ns, want %d", k, got[k], v)
		}
		total += v
	}
	for _, v := range got {
		sum += v
	}
	if sum != total || len(got) != len(want) {
		t.Fatalf("attribution %v does not sum to the profiled %d ns", got, total)
	}
}

// The decoder reads what runtime/pprof writes.
func TestParseRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("cpu profiler busy:", err)
	}
	deadline := time.Now().Add(200 * time.Millisecond)
	x := 0
	for time.Now().Before(deadline) {
		x++
	}
	pprof.StopCPUProfile()
	stacks, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range stacks {
		if len(s.funcs) == 0 || s.ns <= 0 {
			t.Fatalf("malformed stack %+v", s)
		}
	}
}

func TestLayerCountsPerOp(t *testing.T) {
	prev := map[string]float64{"wire_frames_sent_total": 100, "wire_frames_received_total": 100, "untouched": 5}
	cur := map[string]float64{"wire_frames_sent_total": 140, "wire_frames_received_total": 140,
		"untouched": 5, "broker_attach_granted_total": 6, "broker_resume_granted_total": 14,
		"netem_packets_sent_total": 1000, "netem_drops_loss_total": 10, "netem_drops_queue_total": 30}
	d := counterDelta(prev, cur)
	if _, ok := d["untouched"]; ok {
		t.Fatal("unchanged counter kept in the delta")
	}
	p := &pass{
		reps: []repStat{{ops: 15, mallocs: 300, allocBytes: 20 * 1024, gc: 1}, {ops: 5, mallocs: 100, allocBytes: 20 * 1024, gc: 3}},
		obs:  d,
	}
	m := map[string]float64{}
	layerCounts(m, p)
	for k, want := range map[string]float64{
		"wire.frames_per_op":      80.0 / 20, // per op over the whole pass
		"broker.grants":           20.0 / 2,  // per repetition
		"broker.resume_ratio":     14.0 / 20,
		"netem.drop_frac":         40.0 / 1000,
		"runtime.mallocs_per_op":  400.0 / 20,
		"runtime.alloc_kb_per_op": 40.0 / 20,
		"runtime.gc_cycles":       2,
		"billing.reports_per_op":  0,
	} {
		if math.Abs(m[k]-want) > 1e-12 {
			t.Errorf("%s = %v, want %v", k, m[k], want)
		}
	}
	if got := perOp(10, 0); got != 0 {
		t.Errorf("perOp with no ops = %v, want 0", got)
	}
}

// BENCHMARK.json declares exactly the metrics the benchmark prints.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark %d", kind, len(got), len(want))
		}
		for i, g := range got {
			if w := want[i]; g.Name != w.name || g.Unit != w.unit || g.Better != w.better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, benchmark %+v", kind, i, g, w)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if seen[d.name] {
			t.Errorf("metric %s declared twice", d.name)
		}
		seen[d.name] = true
	}
	for metric := range spanMetrics {
		if !seen[metric] {
			t.Errorf("span metric %s not declared", metric)
		}
	}
}
