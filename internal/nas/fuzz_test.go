package nas

import (
	"bytes"
	"testing"
)

// FuzzDecodeAttachResume feeds Decode arbitrary uplink bytes — what a UE
// or a bTelco in the path controls — seeded with an AttachResume recorded
// from a loopback resume (testdata/fuzz) and a synthetic one. Any message
// Decode accepts must re-encode to bytes that decode to the same encoding.
func FuzzDecodeAttachResume(f *testing.F) {
	f.Add(Encode(&AttachResume{BrokerID: "broker.example", ResumeReq: []byte("resume-blob")}))
	f.Add([]byte{MsgAttachResume})
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := Decode(b)
		if err != nil {
			return
		}
		enc := Encode(m)
		again, err := Decode(enc)
		if err != nil {
			t.Fatalf("re-encoded %T does not decode: %v", m, err)
		}
		if !bytes.Equal(Encode(again), enc) {
			t.Fatalf("%T decoding is not stable:\n%x\n%x", m, enc, Encode(again))
		}
		if r, ok := m.(*AttachResume); ok && !bytes.Equal(enc, b) {
			t.Fatalf("AttachResume %+v re-encodes differently:\n in %x\nout %x", r, b, enc)
		}
	})
}
