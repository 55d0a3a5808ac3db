package transport

import (
	"testing"

	"repro/internal/crypto"
	"repro/internal/types"
)

// FuzzOpenFrame feeds hostile bytes to the only parser that sees a frame
// before its tag is checked: openFrame's tag split, then the record walk
// that runs once the tag holds. No input may panic, and no slice either one
// yields may reach outside the frame. Seeds: real frames — untagged, sealed
// on a MAC stream and DS signed, of one vote, of one proposal and of several
// records — and each of their truncations.
//
//	go test -run '^$' -fuzz FuzzOpenFrame -fuzztime 20s ./internal/transport
func FuzzOpenFrame(f *testing.F) {
	b := &types.Batch{Txns: []types.Transaction{{Client: 7, Seq: 1, Op: []byte("op")}}}
	msgs := []types.Message{
		types.NewCommit(1, 0, 2, 3, b.Digest()),
		&types.PrePrepare{Header: types.Header{Inst: 1}, View: 2, Round: 3, Digest: b.Digest(), Batch: b},
		types.NewClientRequest(0, b.Txns[0]),
	}
	for _, auth := range []crypto.Authenticator{nil, crypto.NewMAC(0, []byte("s")), crypto.NewDSDev(0, []byte("s"))} {
		w, err := newLinkAuth(auth, 0, 1, false, [saltLen]byte{})
		if err != nil {
			f.Fatal(err)
		}
		for _, batch := range [][]types.Message{msgs[:1], msgs[1:2], msgs} {
			frame := []byte{0, 0, 0, 0}
			var err error
			for _, m := range batch {
				if frame, err = appendRecord(frame, m); err != nil {
					f.Fatal(err)
				}
			}
			if frame, err = w.sealFrame(frame); err != nil {
				f.Fatal(err)
			}
			for i := 0; i <= len(frame)-4; i++ {
				f.Add(frame[4 : 4+i])
			}
		}
	}
	f.Fuzz(func(t *testing.T, frame []byte) {
		records, tag, ok := openFrame(frame)
		if !ok {
			return
		}
		within(t, frame, records)
		within(t, frame, tag)
		if len(records)+len(tag)+1 != len(frame) || int(frame[len(frame)-1]) != len(tag) {
			t.Fatalf("split %d+%d of a %d-byte frame", len(records), len(tag), len(frame))
		}
		forEachRecord(records, func(msg []byte) {
			if len(msg) == 0 {
				t.Fatal("empty record yielded")
			}
			within(t, records, msg)
		})
	})
}

// within fails t unless sub is a subslice of buf: same backing array, no
// byte outside buf[:len(buf)].
func within(t *testing.T, buf, sub []byte) {
	t.Helper()
	if len(sub) == 0 {
		return
	}
	off := cap(buf) - cap(sub)
	if off < 0 || off+len(sub) > len(buf) || &buf[off] != &sub[0] {
		t.Fatalf("slice of %d bytes outside its %d-byte frame", len(sub), len(buf))
	}
}
