package main

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"sync"
	"time"

	"cellbricks/internal/mobility"
	"cellbricks/internal/nas"
	"cellbricks/internal/obs"
	"cellbricks/internal/testbed"
	"cellbricks/internal/ue"
)

// repOut is what one repetition of a workload reports.
type repOut struct {
	ops    int      // operations attempted
	failed int      // operations that errored or failed a check
	checks []string // failed correctness checks, if any
	// emu holds figures taken from the emulation; they repeat exactly
	// for a seed.
	emu map[string]float64
	// lat holds wall-clock latency samples in ms, keyed by metric stem.
	lat map[string][]float64
}

func (r *repOut) check(ok bool, format string, args ...any) {
	if !ok {
		r.checks = append(r.checks, fmt.Sprintf(format, args...))
	}
}

// workload is one benchmark workload. Each measured repetition is open,
// rep, close; only rep is timed.
type workload interface {
	// setup performs one complete set-up step of the workload and
	// releases what it built; the benchmark times it as setup_s.
	setup() error
	// open prepares a repetition; tr and ids are nil when untraced.
	open(tr *obs.Tracer, ids *obs.SpanIDSource) error
	rep() repOut
	close()
}

func newWorkload(name string, seed int64) (workload, error) {
	switch name {
	case "storm":
		return newStorm(seed), nil
	case "drive":
		return newDrive(seed), nil
	case "attach-loopback":
		return &loopback{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want storm, drive or attach-loopback)", name)
}

// --- storm: the control plane under a flash crowd (emulated, open loop) ---

type storm struct {
	cfg    testbed.StormConfig
	digest [32]byte // Render() digest of the first repetition
	reps   int
}

// newStorm builds the storm input from the seed: 100 UEs in 4 groups of
// 25 over 2 cells each, Poisson arrivals ramping 40 -> 80 per second over
// 30 emulated seconds with an x8 flash-crowd spike, one shard, and the
// broker's default optimized pipeline (batching, auth cache, resume,
// admission control).
func newStorm(seed int64) *storm {
	return &storm{cfg: testbed.StormConfig{
		Seed:          seed,
		Duration:      30 * time.Second,
		Groups:        4,
		CellsPerGroup: 2,
		UEsPerGroup:   25,
		BaseRate:      40,
		PeakRate:      80,
		Spike:         8,
		Shards:        1,
	}}
}

// setup builds a full storm world — keys, certificates and broker
// registrations for every UE and cell — and runs it for one emulated
// millisecond, which is set-up alone.
func (s *storm) setup() error {
	cfg := s.cfg
	cfg.Duration = time.Millisecond
	_, err := testbed.RunStorm(cfg)
	return err
}

func (s *storm) rep() repOut {
	res, err := testbed.RunStorm(s.cfg)
	out := repOut{ops: res.Attempts}
	if err != nil {
		out.check(false, "storm: %v", err)
		out.ops = max(out.ops, 1)
		out.failed = out.ops
		return out
	}
	digest := sha256.Sum256([]byte(res.Render()))
	if s.reps == 0 {
		s.digest = digest
	}
	s.reps++
	out.check(digest == s.digest, "storm: Render() digest differs between repetitions of one seed")
	out.check(res.Denied == 0, "storm: %d denied attaches", res.Denied)
	out.check(res.Mismatches == 0, "storm: %d billing mismatches", res.Mismatches)
	out.check(res.Attaches <= res.Grants, "storm: %d attaches exceed %d grants", res.Attaches, res.Grants)
	out.check(res.Attempts > 0 && len(res.LatMS) > 0, "storm: no attach attempts")
	out.failed = res.GiveUps + res.Denied
	if len(out.checks) > 0 {
		out.failed = out.ops
	}
	tail := min(99, tailPercentile(len(res.LatMS)))
	out.emu = map[string]float64{
		"emu_attach_p50_ms": percentile(res.LatMS, 50),
		"emu_attach_p99_ms": percentile(res.LatMS, tail),
		"emu_shed_frac":     ratio(float64(res.Sheds), float64(res.Attempts)),
		"emu_availability":  res.Availability,
		// Recorded in the artifact: the sample count and the percentile
		// the p99 figure actually reports.
		"emu_attach_samples":      float64(len(res.LatMS)),
		"emu_attach_tail_pct":     tail,
		"ue.attempts_per_arrival": ratio(float64(res.Attempts), float64(res.Arrivals)),
	}
	return out
}

func (s *storm) open(*obs.Tracer, *obs.SpanIDSource) error { return nil }
func (s *storm) close()                                    {}

// --- drive: the data plane on a long night drive (emulated) ---

type drive struct {
	sc     testbed.Scenario
	digest [32]byte
	reps   int
}

// driveCycle is the billing report cycle of the drive.
const driveCycle = 30 * time.Second

// newDrive builds the drive input from the seed: 20 emulated minutes of
// a downtown night drive on the CellBricks architecture (MPTCP across
// bTelco switches), with the real SAP and billing control plane.
func newDrive(seed int64) *drive {
	return &drive{sc: testbed.Scenario{
		Route:    mobility.Downtown,
		Night:    true,
		Arch:     testbed.ArchCellBricks,
		Seed:     seed,
		Duration: 20 * time.Minute,
	}}
}

// setup builds the drive's principals, emulated path and transport and
// performs the first attach, with an emulated horizon of 1 ms.
func (d *drive) setup() error {
	sc := d.sc
	sc.Duration = time.Millisecond
	_, err := testbed.RunBilledDrive(sc, driveCycle)
	return err
}

func (d *drive) rep() repOut {
	before := obs.Default().Snapshot()
	res, err := testbed.RunBilledDrive(d.sc, driveCycle)
	delivered := obs.Default().Snapshot()["netem_packets_delivered_total"] - before["netem_packets_delivered_total"]
	out := repOut{ops: int(delivered)}
	if err != nil || delivered <= 0 {
		out.check(false, "drive: %v (delivered %v packets)", err, delivered)
		out.ops = max(out.ops, 1)
		out.failed = out.ops
		return out
	}
	// Settlement references are random per run; everything else is a
	// function of the seed.
	summary := fmt.Sprintf("sessions=%d cycles=%d mismatches=%d ue=%d telco=%d owed=%.9f delivered=%v",
		res.Sessions, res.Cycles, res.Mismatches, res.UEBytes, res.TelcoBytes, res.TotalOwed, delivered)
	for _, st := range res.Settlements {
		summary += fmt.Sprintf(" %s:%d:%.9f:%t", st.IDT, st.VerifiedBytes, st.Amount, st.Disputed)
	}
	digest := sha256.Sum256([]byte(summary))
	if d.reps == 0 {
		d.digest = digest
	}
	d.reps++
	out.check(digest == d.digest, "drive: output differs between repetitions of one seed")
	out.check(res.Mismatches == 0, "drive: %d billing mismatches", res.Mismatches)
	out.check(res.Sessions >= 1, "drive: no sessions")
	out.check(res.UEBytes <= res.TelcoBytes, "drive: UE bytes %d exceed bTelco bytes %d", res.UEBytes, res.TelcoBytes)
	if len(out.checks) > 0 {
		out.failed = out.ops
	}
	out.emu = map[string]float64{
		"emu_goodput_mbps": float64(res.UEBytes) * 8 / d.sc.Duration.Seconds() / 1e6,
	}
	return out
}

func (d *drive) open(*obs.Tracer, *obs.SpanIDSource) error { return nil }
func (d *drive) close()                                    {}

// --- attach-loopback: the shipped daemons over real TCP (closed loop) ---

// loopbackUEs is the closed loop's client count: one connection each, no
// more than the two cores the benchmark is sized for.
const loopbackUEs = 2

// loopbackOpsPerUE is how many attach+report+detach cycles each UE runs
// in one repetition.
const loopbackOpsPerUE = 100

type loopback struct {
	d   *testbed.RealDeployment
	ues []*loopUE
	tr  *obs.Tracer
	ids *obs.SpanIDSource
}

type loopUE struct {
	dev *ue.Device
	tx  ue.NASTransport
}

// setup brings a deployment up to its first served operation: it starts
// brokerd, the subscriber database, the AGW's NAS server and orc8r on
// loopback, provisions and dials the UEs, and runs one cold
// attach+report+detach cycle per UE.
func (l *loopback) setup() error {
	if err := l.open(nil, nil); err != nil {
		return err
	}
	defer l.close()
	for _, u := range l.ues {
		if _, _, _, err := l.cycle(u); err != nil {
			return err
		}
	}
	return nil
}

// open starts a fresh deployment for each repetition, so broker and AGW
// state does not grow with the number of operations a run gets through.
func (l *loopback) open(tr *obs.Tracer, ids *obs.SpanIDSource) error {
	d, err := testbed.NewRealDeploymentTraced(tr, ids)
	if err != nil {
		return err
	}
	l.d, l.tr, l.ids, l.ues = d, tr, ids, nil
	for i := 0; i < loopbackUEs; i++ {
		dev, tx, err := d.NewCellBricksUE()
		if err != nil {
			d.Close()
			return err
		}
		l.ues = append(l.ues, &loopUE{dev: dev, tx: l.wrapNAS(tx)})
	}
	return nil
}

// wrapNAS records a wire/nas-rtt span around each traced NAS exchange,
// parented like the AGW's epc/attach span so the latter nests inside it.
func (l *loopback) wrapNAS(tx ue.NASTransport) ue.NASTransport {
	if l.tr == nil {
		return tx
	}
	return func(env []byte) ([]byte, error) {
		_, sc, _, _ := nas.SplitEnvelope(env)
		start := l.tr.Now()
		reply, err := tx(env)
		if sc.Valid() {
			l.tr.SpanCtx(obs.SpanContext{Trace: sc.Trace, Span: l.ids.Next(), Parent: sc.Span},
				"wire", "nas-rtt", start, l.tr.Now()-start, nil)
		}
		return reply, err
	}
}

func (l *loopback) rep() repOut {
	before := obs.Default().Snapshot()["broker_reports_ingested_total"]
	type result struct {
		attach, report []float64
		failed, sent   int
		checks         []string
	}
	results := make([]result, len(l.ues))
	var wg sync.WaitGroup
	for i, u := range l.ues {
		wg.Add(1)
		go func(r *result, u *loopUE) {
			defer wg.Done()
			for n := 0; n < loopbackOpsPerUE; n++ {
				a, rep, sent, err := l.cycle(u)
				r.sent += sent
				if err != nil {
					r.failed++
					if len(r.checks) < 3 {
						r.checks = append(r.checks, err.Error())
					}
					continue
				}
				r.attach = append(r.attach, a)
				r.report = append(r.report, rep)
			}
		}(&results[i], u)
	}
	wg.Wait()
	out := repOut{ops: loopbackOpsPerUE * len(l.ues), lat: map[string][]float64{}}
	sent := 0
	for _, r := range results {
		out.failed += r.failed
		out.checks = append(out.checks, r.checks...)
		out.lat["attach"] = append(out.lat["attach"], r.attach...)
		out.lat["report"] = append(out.lat["report"], r.report...)
		sent += r.sent
	}
	ingested := int(obs.Default().Snapshot()["broker_reports_ingested_total"] - before)
	if ingested != sent {
		out.check(false, "attach-loopback: broker ingested %d reports, %d sent", ingested, sent)
		out.failed = min(out.ops, out.failed+max(sent-ingested, ingested-sent))
	}
	return out
}

// cycle runs one closed-loop operation: attach, upload the bTelco's
// billing report for the new session, detach. It returns the attach and
// report latencies in ms and the number of reports sent.
func (l *loopback) cycle(u *loopUE) (attachMS, reportMS float64, sent int, err error) {
	if l.tr != nil {
		u.dev.TraceAttach(l.tr, l.ids, l.ids.NewTrace())
	}
	t0 := time.Now()
	a, err := u.dev.AttachSAP(u.tx, l.d.TelcoID())
	t1 := time.Now()
	if err != nil {
		return 0, 0, 0, fmt.Errorf("attach: %w", err)
	}
	if a == nil || a.SessionID == 0 {
		return 0, 0, 0, errors.New("attach returned no session")
	}
	start := l.tr.Now()
	// Each session carries one report, so its clock reads one second.
	err = l.d.UploadTelcoReport(a.SessionID, time.Second)
	if l.tr != nil {
		l.tr.SpanCtx(l.ids.NewTrace(), "billing", "report-upload", start, l.tr.Now()-start, nil)
	}
	t2 := time.Now()
	if err != nil {
		return 0, 0, 0, fmt.Errorf("report upload: %w", err)
	}
	if err := u.dev.Detach(u.tx); err != nil {
		return 0, 0, 1, fmt.Errorf("detach: %w", err)
	}
	return ms(t1.Sub(t0)), ms(t2.Sub(t1)), 1, nil
}

func (l *loopback) close() {
	if l.d != nil {
		l.d.Close()
		l.d = nil
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
