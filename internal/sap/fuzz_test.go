package sap

import (
	"bytes"
	"testing"
)

// recordedResume runs one full attach and one resume exchange between
// the fixture's parties and returns the ticket the UE resumed with and
// both resume messages as they crossed the wire.
func recordedResume(tb testing.TB) (*ResumeSession, *ResumeReq, *ResumeResp, *GrantRecord) {
	f := newFixture(tb)
	ueSS, _, grant, rec := f.runAttach(tb)
	tkt := &ResumeSession{IDT: f.telco.IDT, URef: grant.URef, SS: ueSS}
	req, err := tkt.NewResumeRequest()
	if err != nil {
		tb.Fatal(err)
	}
	if err := f.telco.ForwardResume(req, grant.SS); err != nil {
		tb.Fatal(err)
	}
	resp, _, _ := GrantResume(req, rec.SS, rec.QoS, 1.0)
	return tkt, req, resp, rec
}

// FuzzUnmarshalResumeReq feeds the broker's resume decoder arbitrary
// bytes, seeded with a recorded exchange. A decoded request must re-encode
// to the same bytes, and only the recorded request may verify under the
// grant's secret.
func FuzzUnmarshalResumeReq(f *testing.F) {
	_, req, _, rec := recordedResume(f)
	recorded := req.Marshal()
	f.Add(recorded)
	f.Add(recorded[:len(recorded)-1])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		got, err := UnmarshalResumeReq(b)
		if err != nil {
			return
		}
		if enc := got.Marshal(); !bytes.Equal(enc, b) {
			t.Fatalf("re-encoding differs:\n in %x\nout %x", b, enc)
		}
		if VerifyResumeReq(got, rec.SS) == nil && !bytes.Equal(b, recorded) {
			t.Fatalf("forged request verified: %x", b)
		}
	})
}

// FuzzUnmarshalResumeResp feeds the UE's and bTelco's resume-response
// decoder arbitrary bytes, seeded with a recorded grant and a denial.
// Decoding must be stable under re-encoding, and the UE may accept only a
// response carrying the broker's MAC for its own request.
func FuzzUnmarshalResumeResp(f *testing.F) {
	tkt, req, resp, _ := recordedResume(f)
	f.Add(resp.Marshal())
	f.Add(DenyResume("unknown session reference", 0.5).Marshal())
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		got, err := UnmarshalResumeResp(b)
		if err != nil {
			return
		}
		enc := got.Marshal()
		again, err := UnmarshalResumeResp(enc)
		if err != nil {
			t.Fatalf("re-encoded response does not decode: %v", err)
		}
		if !bytes.Equal(again.Marshal(), enc) {
			t.Fatalf("decoding is not stable:\n%x\n%x", enc, again.Marshal())
		}
		if _, _, err := tkt.HandleResumeResponse(req, got); err == nil && !bytes.Equal(got.MACU, resp.MACU) {
			t.Fatalf("UE accepted a response without the broker's MAC: %x", b)
		}
	})
}
