package testbed

import (
	"errors"
	"testing"
	"time"

	"cellbricks/internal/broker"
	"cellbricks/internal/chaos"
	"cellbricks/internal/epc"
	"cellbricks/internal/nas"
	"cellbricks/internal/obs"
	"cellbricks/internal/ue"
	"cellbricks/internal/wire"
)

// brokerCounts snapshots the broker's attach counters from the default
// registry, so a test can assert deltas over one step.
type brokerCounts struct {
	granted, denied, resumed, resumeDenied, quarDenied, reports float64
}

func readBrokerCounts() brokerCounts {
	s := obs.Default().Snapshot()
	return brokerCounts{
		granted:      s["broker_attach_granted_total"],
		denied:       s["broker_attach_denied_total"],
		resumed:      s["broker_resume_granted_total"],
		resumeDenied: s["broker_resume_denied_total"],
		quarDenied:   s["broker_quarantine_denied_total"],
		reports:      s["broker_reports_ingested_total"],
	}
}

func (c brokerCounts) sub(o brokerCounts) brokerCounts {
	return brokerCounts{
		granted:      c.granted - o.granted,
		denied:       c.denied - o.denied,
		resumed:      c.resumed - o.resumed,
		resumeDenied: c.resumeDenied - o.resumeDenied,
		quarDenied:   c.quarDenied - o.quarDenied,
		reports:      c.reports - o.reports,
	}
}

// attachDelta runs one attach and returns it with the broker counter
// deltas it caused.
func attachDelta(t *testing.T, dev *ue.Device, tx ue.NASTransport, idT string) (*ue.Attachment, brokerCounts, error) {
	t.Helper()
	before := readBrokerCounts()
	a, err := dev.AttachSAP(tx, idT)
	return a, readBrokerCounts().sub(before), err
}

// fullAttachThenDetach gives dev a resume ticket for the deployment's
// bTelco: one full handshake, then a detach. It returns the session
// reference the grant was served under.
func fullAttachThenDetach(t *testing.T, d *RealDeployment, dev *ue.Device, tx ue.NASTransport) string {
	t.Helper()
	a, delta, err := attachDelta(t, dev, tx, d.TelcoID())
	if err != nil {
		t.Fatal(err)
	}
	if delta.granted != 1 || delta.resumed != 0 {
		t.Fatalf("first attach: %+v, want one full grant", delta)
	}
	uref := d.AGW.Session(a.SessionID).URef
	if err := dev.Detach(tx); err != nil {
		t.Fatal(err)
	}
	return uref
}

// restartAGW replaces the deployment's AGW and NAS server with fresh ones
// on the same bTelco identity and broker client: the restarted gateway
// holds no resumable grants. intercept, when set, receives the new
// gateway's lawful-intercept records.
func restartAGW(t *testing.T, d *RealDeployment, intercept func(epc.InterceptRecord)) {
	t.Helper()
	d.NASSrv.Close()
	d.AGW = epc.NewAGW(epc.AGWConfig{
		Telco:     d.telco,
		Brokers:   wireDirectory{id: d.Broker.ID(), c: d.brokerClient, pub: d.Broker.Public()},
		Intercept: intercept,
	})
	var err error
	if d.NASSrv, err = epc.ServeNAS(d.AGW, "127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
}

// decodePlain decodes an unprotected NAS reply envelope.
func decodePlain(t *testing.T, reply []byte) nas.Message {
	t.Helper()
	protected, _, body, err := nas.SplitEnvelope(reply)
	if err != nil || protected {
		t.Fatalf("reply envelope: protected=%v err=%v", protected, err)
	}
	msg, err := nas.Decode(body)
	if err != nil {
		t.Fatal(err)
	}
	return msg
}

// TestRealResumeEndToEnd: after a full attach and detach the UE's next
// attach resumes over the shipped sockets, the AGW serves the successor
// session, and the bTelco's billing report is ingested under the
// successor reference.
func TestRealResumeEndToEnd(t *testing.T) {
	d, err := NewRealDeployment()
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	dev, tx, err := d.NewCellBricksUE()
	if err != nil {
		t.Fatal(err)
	}
	uref1 := fullAttachThenDetach(t, d, dev, tx)

	a, delta, err := attachDelta(t, dev, tx, d.TelcoID())
	if err != nil {
		t.Fatal(err)
	}
	if delta.resumed != 1 || delta.granted != 0 {
		t.Fatalf("re-attach: %+v, want one resume and no full grant", delta)
	}
	sess := d.AGW.Session(a.SessionID)
	if sess == nil || sess.URef == "" || sess.URef == uref1 {
		t.Fatalf("resumed session %+v, want a successor of %q", sess, uref1)
	}
	if g := d.Broker.Grant(sess.URef); g == nil || g.IDT != d.TelcoID() {
		t.Fatalf("broker holds no grant for successor %q", sess.URef)
	}
	before := readBrokerCounts()
	if err := d.UploadTelcoReport(a.SessionID, time.Second); err != nil {
		t.Fatal(err)
	}
	if err := d.UploadUEReport(dev, time.Second); err != nil {
		t.Fatal(err)
	}
	if got := readBrokerCounts().sub(before).reports; got != 2 {
		t.Fatalf("broker ingested %v reports for the resumed session, want 2", got)
	}
	if m := d.Broker.Mismatches(); len(m) != 0 {
		t.Fatalf("resumed session flagged: %v", m)
	}
	if err := dev.Detach(tx); err != nil {
		t.Fatal(err)
	}
	if n := d.AGW.ActiveSessions(); n != 0 {
		t.Fatalf("%d sessions left after detach", n)
	}
	// The chain continues: the next attach resumes from the successor.
	if _, delta, err := attachDelta(t, dev, tx, d.TelcoID()); err != nil || delta.resumed != 1 {
		t.Fatalf("second resume: %+v, %v", delta, err)
	}
}

// TestRealResumeReplayRefused: an AttachResume is single-use. An on-path
// attacker copies the UE's request and gets it to the AGW first; the UE's
// own copy then arrives as a replay, is refused, and the UE falls back to
// a full handshake in the same call. Replaying the copy later is refused
// too.
func TestRealResumeReplayRefused(t *testing.T) {
	d, err := NewRealDeployment()
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	dev, tx, err := d.NewCellBricksUE()
	if err != nil {
		t.Fatal(err)
	}
	fullAttachThenDetach(t, d, dev, tx)

	attacker, err := d.dialNAS("real-attacker")
	if err != nil {
		t.Fatal(err)
	}
	var stolen []byte
	racing := func(env []byte) ([]byte, error) {
		if _, _, body, err := nas.SplitEnvelope(env); err == nil && len(body) > 0 &&
			body[0] == nas.MsgAttachResume && stolen == nil {
			stolen = append([]byte(nil), env...)
			if _, err := attacker(stolen); err != nil {
				return nil, err
			}
		}
		return tx(env)
	}
	a, delta, err := attachDelta(t, dev, racing, d.TelcoID())
	if err != nil {
		t.Fatalf("UE did not fall back to a full attach: %v", err)
	}
	if stolen == nil {
		t.Fatal("the UE never sent an AttachResume")
	}
	// One resume granted (the attacker's copy, useless without ss), one
	// full grant (the UE's fallback).
	if delta.resumed != 1 || delta.granted != 1 {
		t.Fatalf("counts %+v, want one resume and one full grant", delta)
	}
	if d.AGW.Session(a.SessionID) == nil {
		t.Fatal("fallback session missing at the AGW")
	}
	reply, err := attacker(stolen)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := decodePlain(t, reply).(*nas.AttachReject); !ok {
		t.Fatalf("replayed AttachResume answered with %T, want AttachReject", decodePlain(t, reply))
	}
	if err := dev.Detach(tx); err != nil {
		t.Fatal(err)
	}
}

// TestRealResumeUnknownReference: a restarted AGW no longer holds the
// UE's grant, so it refuses the resume before reaching the broker and the
// UE falls back to a full handshake.
func TestRealResumeUnknownReference(t *testing.T) {
	d, err := NewRealDeployment()
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	dev, tx, err := d.NewCellBricksUE()
	if err != nil {
		t.Fatal(err)
	}
	fullAttachThenDetach(t, d, dev, tx)
	restartAGW(t, d, nil)
	tx2, err := d.dialNAS(dev.RANID)
	if err != nil {
		t.Fatal(err)
	}
	_, delta, err := attachDelta(t, dev, tx2, d.TelcoID())
	if err != nil {
		t.Fatal(err)
	}
	if delta.granted != 1 || delta.resumed != 0 || delta.resumeDenied != 0 {
		t.Fatalf("counts %+v, want a full grant and no broker resume", delta)
	}
	if st := d.AGW.Stats(); st.AttachFailures != 1 || st.Attaches != 1 {
		t.Fatalf("AGW stats %+v, want the refused resume and one attach", st)
	}
	// The fallback grant is itself resumable.
	if err := dev.Detach(tx2); err != nil {
		t.Fatal(err)
	}
	if _, delta, err := attachDelta(t, dev, tx2, d.TelcoID()); err != nil || delta.resumed != 1 {
		t.Fatalf("resume after fallback: %+v, %v", delta, err)
	}
}

// TestRealResumeShedKeepsTicket: a broker shedding load answers a resume
// with the typed retry-after hint, which reaches the UE in the
// AttachReject; the UE keeps its ticket and the AGW its grant, so the
// next attach resumes.
func TestRealResumeShedKeepsTicket(t *testing.T) {
	d, err := NewRealDeployment()
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	dev, tx, err := d.NewCellBricksUE()
	if err != nil {
		t.Fatal(err)
	}
	fullAttachThenDetach(t, d, dev, tx)

	d.Broker.ShedLoad(250 * time.Millisecond)
	_, delta, err := attachDelta(t, dev, tx, d.TelcoID())
	var ra *wire.RetryAfterError
	if !errors.Is(err, ue.ErrRejected) || !errors.As(err, &ra) {
		t.Fatalf("attach during shed: %v, want a rejection with a retry-after hint", err)
	}
	if ra.After != 250*time.Millisecond {
		t.Fatalf("retry-after hint %v, want 250ms", ra.After)
	}
	if delta.granted != 0 || delta.resumed != 0 {
		t.Fatalf("counts during shed %+v, want nothing granted", delta)
	}
	d.Broker.Resume()
	if _, delta, err := attachDelta(t, dev, tx, d.TelcoID()); err != nil || delta.resumed != 1 || delta.granted != 0 {
		t.Fatalf("attach after shed: %+v, %v, want a resume", delta, err)
	}
}

// TestRealResumeQuarantineDenied: a quarantined bTelco is denied on the
// resume path by the same policy veto as on a full attach; the UE's
// fallback full attach is denied too.
func TestRealResumeQuarantineDenied(t *testing.T) {
	d, err := NewRealDeployment()
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	dev, tx, err := d.NewCellBricksUE()
	if err != nil {
		t.Fatal(err)
	}
	fullAttachThenDetach(t, d, dev, tx)

	d.Broker.EnableQuarantine(broker.QuarantineConfig{EnterBelow: 0.7, Probation: time.Minute}, nil)
	d.Broker.ReportWatchdog(d.TelcoID(), 1.0)
	d.Broker.ReportWatchdog(d.TelcoID(), 1.0)
	if !d.Broker.Quarantined(d.TelcoID()) {
		t.Fatal("bTelco not quarantined")
	}
	_, delta, err := attachDelta(t, dev, tx, d.TelcoID())
	if !errors.Is(err, ue.ErrRejected) {
		t.Fatalf("attach to a quarantined bTelco: %v, want a rejection", err)
	}
	want := brokerCounts{denied: 1, resumeDenied: 1, quarDenied: 2}
	if delta != want {
		t.Fatalf("counts %+v, want %+v (resume and full attach both vetoed)", delta, want)
	}
}

// TestRealResumeKeepsInterceptTap: a resumed grant keeps the original
// grant's lawful-intercept flag, so the successor session is tapped too.
func TestRealResumeKeepsInterceptTap(t *testing.T) {
	d, err := NewRealDeployment()
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	var tapped []epc.InterceptRecord
	restartAGW(t, d, func(r epc.InterceptRecord) { tapped = append(tapped, r) })
	d.telco.Terms.LawfulIntercept = true
	dev, tx, err := d.NewCellBricksUE()
	if err != nil {
		t.Fatal(err)
	}
	fullAttachThenDetach(t, d, dev, tx)

	a, delta, err := attachDelta(t, dev, tx, d.TelcoID())
	if err != nil || delta.resumed != 1 {
		t.Fatalf("resume: %+v, %v", delta, err)
	}
	d.AGW.UserPlane().Lookup(a.IP).Process(0, epc.Downlink, 700)
	uref := d.AGW.Session(a.SessionID).URef
	if len(tapped) != 1 || tapped[0].Bytes != 700 || tapped[0].URef != uref {
		t.Fatalf("tapped %+v, want one 700-byte record under %q", tapped, uref)
	}
}

// TestFig7AndFailoverNeverResume: Fig. 7 and the failover experiment
// attach with a fresh device each time, so they keep measuring the full
// handshake however the resume path evolves.
func TestFig7AndFailoverNeverResume(t *testing.T) {
	before := readBrokerCounts()
	if _, err := RunAttachBench(ArchCellBricks, PlacementLocal, 5); err != nil {
		t.Fatal(err)
	}
	spec, err := chaos.ParseSpec("broker=1x10s")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunFailover(FailoverConfig{Seed: 11, Duration: 60 * time.Second, Spec: spec}); err != nil {
		t.Fatal(err)
	}
	delta := readBrokerCounts().sub(before)
	if delta.granted < 5 {
		t.Fatalf("only %v full grants recorded", delta.granted)
	}
	if delta.resumed != 0 || delta.resumeDenied != 0 {
		t.Fatalf("resume counts %+v, want zero", delta)
	}
}

// TestRealResumeConcurrentUEs: UEs resume concurrently through one AGW,
// whose NAS-server goroutines share the resumable-grant table (run under
// -race in CI).
func TestRealResumeConcurrentUEs(t *testing.T) {
	d, err := NewRealDeployment()
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	const ues, cycles = 8, 3
	before := readBrokerCounts()
	errs := make(chan error, ues)
	for i := 0; i < ues; i++ {
		go func() {
			dev, tx, err := d.NewCellBricksUE()
			for n := 0; err == nil && n < cycles; n++ {
				if _, err = dev.AttachSAP(tx, d.TelcoID()); err == nil {
					err = dev.Detach(tx)
				}
			}
			errs <- err
		}()
	}
	for i := 0; i < ues; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	delta := readBrokerCounts().sub(before)
	if delta.granted != ues || delta.resumed != ues*(cycles-1) {
		t.Fatalf("counts %+v, want %d full grants and %d resumes", delta, ues, ues*(cycles-1))
	}
}
