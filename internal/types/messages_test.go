package types

import (
	"bytes"
	"testing"
)

// authBytes returns the bytes the transport authenticates for m: its
// encoding, exactly as it travels in a record.
func authBytes(t *testing.T, m Message) []byte {
	t.Helper()
	b, err := MarshalMessage(m)
	if err != nil {
		t.Fatalf("%s: %v", m.Type(), err)
	}
	return b
}

// TestEncodingsPairwiseDistinct checks that no two message types (with
// overlapping field values) authenticate to the same bytes: a tag for one
// message must never verify another.
func TestEncodingsPairwiseDistinct(t *testing.T) {
	seen := make(map[string]MsgType)
	for _, m := range codecCorpus() {
		payload := string(authBytes(t, m))
		if prev, dup := seen[payload]; dup {
			t.Fatalf("%s and %s share an encoding", prev, m.Type())
		}
		seen[payload] = m.Type()
	}
}

// TestEncodingsDeterministic checks replayability of the authenticated
// form: a retransmitted message must carry the same bytes.
func TestEncodingsDeterministic(t *testing.T) {
	for _, m := range codecCorpus() {
		if !bytes.Equal(authBytes(t, m), authBytes(t, m)) {
			t.Fatalf("%s: encoding not deterministic", m.Type())
		}
	}
}

// TestAppendMessageAppends checks the append contract the transport's record
// writer relies on: the encoding goes after whatever the frame already holds.
func TestAppendMessageAppends(t *testing.T) {
	prefix := []byte("prefix")
	for _, m := range codecCorpus() {
		out, err := AppendMessage(append([]byte(nil), prefix...), m)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(out, prefix) {
			t.Fatalf("%s: append contract broken", m.Type())
		}
		if !bytes.Equal(out[len(prefix):], authBytes(t, m)) {
			t.Fatalf("%s: appended encoding differs", m.Type())
		}
	}
}

// TestWireSizesPositiveAndTyped checks every message reports a positive
// simulated wire size and its declared type.
func TestWireSizesPositiveAndTyped(t *testing.T) {
	for _, m := range codecCorpus() {
		if m.WireSize() <= 0 {
			t.Fatalf("%s: non-positive wire size", m.Type())
		}
		if m.Type() == MsgInvalid {
			t.Fatalf("%T: invalid type", m)
		}
	}
}

// TestInstanceRouting checks the Header Instance accessor survives each
// concrete type.
func TestInstanceRouting(t *testing.T) {
	for _, m := range codecCorpus() {
		pp, ok := m.(*PrePrepare)
		if !ok {
			continue
		}
		pp.Inst = 7
		if pp.Instance() != 7 {
			t.Fatal("instance accessor broken")
		}
	}
}

// TestBatchCarryingSizesScale checks that batch-carrying messages charge
// proposal-proportional wire sizes while votes stay constant.
func TestBatchCarryingSizesScale(t *testing.T) {
	small := &Batch{Txns: make([]Transaction, 10)}
	large := &Batch{Txns: make([]Transaction, 400)}
	if (&PrePrepare{Batch: small}).WireSize() >= (&PrePrepare{Batch: large}).WireSize() {
		t.Fatal("preprepare size does not scale with batch")
	}
	v := NewPrepare(0, 0, 0, 1, ZeroDigest)
	if v.WireSize() != ConsensusMsgBytes {
		t.Fatal("vote size not constant")
	}
	// Aggregates charge their contents.
	ap := []AcceptedProposal{{Batch: large}}
	if (&ViewChange{Prepared: ap}).WireSize() <= ConsensusMsgBytes {
		t.Fatal("view change ignores carried proposals")
	}
	if (&NewView{Reproposed: ap}).WireSize() <= ConsensusMsgBytes {
		t.Fatal("new view ignores carried proposals")
	}
	st := &Stop{Evidence: []*Failure{{State: ap}}}
	if st.WireSize() <= ConsensusMsgBytes {
		t.Fatal("stop ignores carried evidence")
	}
}

// TestClientReplyEncodingCoversEverySeq: one tag covers a whole batch
// reply, so changing any one listed seq — or dropping one — must change the
// authenticated bytes.
func TestClientReplyEncodingCoversEverySeq(t *testing.T) {
	seqs := []uint64{4, 5, 9, 12}
	reply := func(seqs []uint64) []byte {
		return authBytes(t, NewClientReply(1, 2, 3, 7, Hash([]byte("r")), seqs))
	}
	base := reply(seqs)
	for i := range seqs {
		forged := append([]uint64(nil), seqs...)
		forged[i]++
		if bytes.Equal(reply(forged), base) {
			t.Fatalf("changing seq %d left the encoding unchanged", i)
		}
	}
	if bytes.Equal(reply(seqs[:3]), base) {
		t.Fatal("dropping a seq left the encoding unchanged")
	}
}
