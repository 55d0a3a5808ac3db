package types

import (
	"bytes"
	"testing"
)

// allMessages builds one populated instance of every message type.
func allMessages() []Message {
	b := &Batch{Txns: []Transaction{{Client: 9, Seq: 3, Op: []byte("op")}}}
	d := b.Digest()
	h := Hash([]byte("chain"))
	ap := []AcceptedProposal{{Round: 2, View: 1, Digest: d, Batch: b, Prepared: true}}
	msgs := []Message{
		NewClientRequest(1, b.Txns[0]),
		NewClientReply(0, 1, 9, 2, d, []uint64{3}),
		&SwitchInstance{Client: 9, To: 2},
		&PrePrepare{View: 1, Round: 2, Digest: d, Batch: b},
		NewPrepare(1, 2, 1, 2, d),
		NewCommit(1, 2, 1, 2, d),
		&Checkpoint{Replica: 1, Round: 2, State: h, Proposals: ap},
		&ViewChange{Replica: 1, NewView: 3, StableCkp: 1, Prepared: ap},
		&NewView{Replica: 1, NewView: 3, ViewProofs: []ReplicaID{0, 1, 2}, Reproposed: ap},
		&Failure{Replica: 1, Round: 2, State: ap},
		&Stop{Target: 1, Evidence: []*Failure{{Replica: 1, Round: 2}}},
		&EpochChange{Replica: 1, Epoch: 2, Failed: 1, Round: 2},
		&NewEpoch{Replica: 1, Epoch: 2, Leaders: []ReplicaID{0, 2}, StartRound: 9},
	}
	return msgs
}

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
	for _, m := range allMessages() {
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
	for _, m := range allMessages() {
		if !bytes.Equal(authBytes(t, m), authBytes(t, m)) {
			t.Fatalf("%s: encoding not deterministic", m.Type())
		}
	}
}

// TestAppendMessageAppends checks the append contract the transport's record
// writer relies on: the encoding goes after whatever the frame already holds.
func TestAppendMessageAppends(t *testing.T) {
	prefix := []byte("prefix")
	for _, m := range allMessages() {
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
	for _, m := range allMessages() {
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
	for _, m := range allMessages() {
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
