package types

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"
	"testing/quick"
)

func TestTransactionMarshalRoundTrip(t *testing.T) {
	f := func(client uint32, seq uint64, op []byte) bool {
		tx := Transaction{Client: ClientID(client), Seq: seq, Op: op}
		b := &Batch{Txns: []Transaction{tx}}
		got, rest, err := UnmarshalBatch(b.Marshal(nil))
		if err != nil || len(rest) != 0 || got.Len() != 1 {
			return false
		}
		g := got.Txns[0]
		return g.Client == tx.Client && g.Seq == tx.Seq && bytes.Equal(g.Op, tx.Op)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTransactionMarshalDeterministic(t *testing.T) {
	tx := Transaction{Client: 7, Seq: 9, Op: []byte("hello")}
	if !bytes.Equal(tx.Marshal(nil), tx.Marshal(nil)) {
		t.Fatal("marshal not deterministic")
	}
}

// TestUnmarshalBatchTruncated: every strict prefix of a 1-txn and a 3-txn
// batch encoding is refused, never decoded short.
func TestUnmarshalBatchTruncated(t *testing.T) {
	one := &Batch{Txns: []Transaction{{Client: 1, Seq: 2, Op: []byte("abcdef")}}}
	three := &Batch{Txns: []Transaction{
		{Client: 1, Seq: 2, Op: []byte("abcdef")},
		{Client: 3, Seq: 4},
		{Client: 5, Seq: 6, Op: []byte("xyz")},
	}}
	for _, b := range []*Batch{one, three} {
		buf := b.Marshal(nil)
		for cut := 0; cut < len(buf); cut++ {
			if _, _, err := UnmarshalBatch(buf[:cut]); err == nil {
				t.Fatalf("%d-txn batch: accepted truncation at %d/%d", b.Len(), cut, len(buf))
			}
		}
	}
}

// hundredTxnBatch is a full batch of varied op lengths.
func hundredTxnBatch() *Batch {
	b := &Batch{Txns: make([]Transaction, 100)}
	for i := range b.Txns {
		b.Txns[i] = Transaction{Client: ClientID(i%7 + 1), Seq: uint64(i), Op: bytes.Repeat([]byte{byte(i)}, i%40+1)}
	}
	return b
}

// Allocation pins for the per-batch hot path: decoding a 100-txn proposal
// or request, and digesting a 100-txn batch, cost a constant number of
// allocations rather than one per transaction.
func TestBatchDecodeAndDigestAllocs(t *testing.T) {
	b := hundredTxnBatch()
	pp, err := MarshalMessage(&PrePrepare{Header: Header{Inst: 1}, View: 2, Round: 3, Digest: b.Digest(), Batch: b})
	if err != nil {
		t.Fatal(err)
	}
	req, err := MarshalMessage(NewClientRequest(1, fullEnvelope()...))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		max  float64
		f    func()
	}{
		// reader, message, batch, txns, ops
		{"decode 100-txn PrePrepare", 5, func() { mustDecode(t, pp) }},
		// reader, message, txns, ops
		{"decode 100-txn ClientRequest", 4, func() { mustDecode(t, req) }},
		{"digest 100-txn batch", 1, func() { b.Digest() }},
	} {
		if got := testing.AllocsPerRun(50, c.f); got > c.max {
			t.Errorf("%s: %v allocations, want ≤ %v", c.name, got, c.max)
		}
	}
}

// TestBatchDigestAllocatesNothing: the digest streams the encoding into
// the hash instead of materializing it, at any batch size.
func TestBatchDigestAllocatesNothing(t *testing.T) {
	for _, n := range []int{1, 400} {
		b := &Batch{Txns: make([]Transaction, n)}
		for i := range b.Txns {
			b.Txns[i] = Transaction{Client: ClientID(i%4 + 1), Seq: uint64(i + 1), Op: bytes.Repeat([]byte{byte(i)}, 69)}
		}
		if got := testing.AllocsPerRun(50, func() { b.Digest() }); got != 0 {
			t.Errorf("%d-txn batch: %v allocations, want 0", n, got)
		}
	}
}

// TestBatchDigestHashesEncoding: the streamed digest equals the hash of the
// Marshal encoding, for ops that fill the 1 KiB hashing buffer exactly,
// overflow it by a byte, or exceed it.
func TestBatchDigestHashesEncoding(t *testing.T) {
	for _, sizes := range [][]int{
		{}, {0}, {1020 - txnHeaderLen}, {1021 - txnHeaderLen}, {1024}, {5000},
		{10, 1000, 10}, {100, 100, 100, 100, 100, 100, 100, 100, 100, 100, 100},
		{0, 2000, 0, 990, 992, 1, 3000},
	} {
		b := &Batch{}
		for i, n := range sizes {
			b.Txns = append(b.Txns, Transaction{Client: ClientID(i + 1), Seq: uint64(i), Op: bytes.Repeat([]byte{byte(i + 1)}, n)})
		}
		if got, want := b.Digest(), Hash(b.Marshal(nil)); got != want {
			t.Errorf("op sizes %v: digest %v, want hash of encoding %v", sizes, got, want)
		}
	}
}

func mustDecode(t *testing.T, enc []byte) {
	if _, err := DecodeMessage(enc); err != nil {
		t.Fatal(err)
	}
}

// TestDecodedOpsAreIsolated: decoded ops share one allocation, so each must
// still behave as its own slice. Appending to one op never writes into the
// next, and overwriting the input frame after decode (the transport reuses
// its read buffers) changes no op.
func TestDecodedOpsAreIsolated(t *testing.T) {
	want := hundredTxnBatch()
	for _, m := range []Message{
		&PrePrepare{Header: Header{Inst: 1}, Digest: want.Digest(), Batch: want},
		NewClientRequest(1, want.Txns...),
	} {
		enc, err := MarshalMessage(m)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeMessage(enc)
		if err != nil {
			t.Fatal(err)
		}
		var txns []Transaction
		switch v := got.(type) {
		case *PrePrepare:
			txns = v.Batch.Txns
		case *ClientRequest:
			txns = v.Txns
		}
		for i := range enc {
			enc[i] = 0xEE
		}
		if !reflect.DeepEqual(txns, want.Txns) {
			t.Fatalf("%v: overwriting the frame changed the decoded ops", m.Type())
		}
		next := append([]byte(nil), txns[2].Op...)
		txns[1].Op = append(txns[1].Op, "grown"...)
		if !bytes.Equal(txns[2].Op, next) {
			t.Fatalf("%v: appending to Txns[1].Op rewrote Txns[2].Op", m.Type())
		}
	}
}

// TestBatchDecodeRefusesForgedLengths: a forged transaction count or op
// length is refused by the length walk, before the transaction slice or the
// op arena is allocated.
func TestBatchDecodeRefusesForgedLengths(t *testing.T) {
	b := &Batch{Txns: []Transaction{{Client: 1, Seq: 1, Op: []byte("abc")}, {Client: 2, Seq: 2, Op: []byte("de")}}}
	honest := b.Marshal(nil)
	forgedCount := append([]byte(nil), honest...)
	binary.BigEndian.PutUint32(forgedCount, 0xFFFFFFFF)
	forgedOp := append([]byte(nil), honest...)
	// The second transaction's op length sits after the count, the first
	// transaction, and its client and seq.
	binary.BigEndian.PutUint32(forgedOp[4+txnHeaderLen+3+12:], 0xFFFFFFF0)
	for name, enc := range map[string][]byte{"txn count": forgedCount, "op length": forgedOp} {
		if _, _, err := UnmarshalBatch(enc); err == nil {
			t.Fatalf("forged %s decoded", name)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if _, _, err := UnmarshalBatch(enc); err == nil {
				t.Fatalf("forged %s decoded", name)
			}
		})
		if allocs != 0 {
			t.Fatalf("forged %s: refusing it allocated %v times", name, allocs)
		}
	}
	if _, _, err := UnmarshalBatch(honest); err != nil {
		t.Fatalf("honest batch refused: %v", err)
	}
}

func TestBatchMarshalRoundTrip(t *testing.T) {
	b := &Batch{Txns: []Transaction{
		{Client: 1, Seq: 1, Op: []byte("a")},
		{Client: 2, Seq: 9, Op: nil},
		{Client: 3, Seq: 100, Op: bytes.Repeat([]byte{0xAB}, 500)},
	}}
	enc := b.Marshal(nil)
	got, rest, err := UnmarshalBatch(enc)
	if err != nil || len(rest) != 0 {
		t.Fatalf("round trip: %v (rest %d)", err, len(rest))
	}
	if got.Digest() != b.Digest() {
		t.Fatal("digest changed across round trip")
	}
	if got.Len() != 3 {
		t.Fatalf("len %d, want 3", got.Len())
	}
}

func TestBatchDigestBindsContent(t *testing.T) {
	b1 := &Batch{Txns: []Transaction{{Client: 1, Seq: 1, Op: []byte("a")}}}
	b2 := &Batch{Txns: []Transaction{{Client: 1, Seq: 1, Op: []byte("b")}}}
	b3 := &Batch{Txns: []Transaction{{Client: 1, Seq: 2, Op: []byte("a")}}}
	if b1.Digest() == b2.Digest() || b1.Digest() == b3.Digest() {
		t.Fatal("digest collision on differing batches")
	}
}

func TestNoOpSemantics(t *testing.T) {
	n := NoOp()
	if !n.IsNoOp() {
		t.Fatal("NoOp not recognized")
	}
	real := Transaction{Client: 1, Seq: 1}
	if real.IsNoOp() {
		t.Fatal("real txn recognized as noop")
	}
	nb := NoOpBatch()
	if !nb.IsNoOp() || nb.Len() != 1 {
		t.Fatal("NoOpBatch malformed")
	}
	mixed := &Batch{Txns: []Transaction{NoOp(), real}}
	if mixed.IsNoOp() {
		t.Fatal("mixed batch flagged as noop")
	}
}

func TestCoordInstanceMapping(t *testing.T) {
	for i := InstanceID(0); i < 100; i++ {
		c := CoordInstance(i)
		if !IsCoord(c) {
			t.Fatalf("coord(%d) not recognized", i)
		}
		if IsCoord(i) {
			t.Fatalf("instance %d misread as coord", i)
		}
		if BCAOf(c) != i {
			t.Fatalf("BCAOf(coord(%d)) = %d", i, BCAOf(c))
		}
	}
}

func TestWireSizeConstantsMatchPaper(t *testing.T) {
	// §V-B: 100-txn proposal = 5400 B; 100-txn reply = 1748 B (we round to
	// 1800 with 18 B/txn); consensus messages 250 B.
	if got := ProposalWireSize(100); got != 5400 {
		t.Fatalf("proposal(100) = %d, want 5400", got)
	}
	if got := ReplyWireSize(100); got < 1748 || got > 1900 {
		t.Fatalf("reply(100) = %d, want ≈1748", got)
	}
	if ConsensusMsgBytes != 250 {
		t.Fatalf("consensus msg = %d, want 250", ConsensusMsgBytes)
	}
	if got := ProposalWireSize(0); got != ProposalBytesPerTxn {
		t.Fatalf("proposal(0) = %d, want one-txn floor", got)
	}
}

func TestDigestHelpers(t *testing.T) {
	if !ZeroDigest.IsZero() {
		t.Fatal("zero digest not zero")
	}
	d := Hash([]byte("x"))
	if d.IsZero() {
		t.Fatal("hash is zero")
	}
	if d.Uint64() == 0 && Hash([]byte("y")).Uint64() == 0 {
		t.Fatal("uint64 folding degenerate")
	}
	if len(d.String()) == 0 {
		t.Fatal("empty digest string")
	}
}

func TestEncodingsDifferAcrossVoteTypes(t *testing.T) {
	// A PREPARE and a COMMIT with identical fields must encode (and so
	// authenticate) differently, or votes could be replayed across phases.
	d := Hash([]byte("d"))
	p := authBytes(t, NewPrepare(1, 2, 3, 4, d))
	c := authBytes(t, NewCommit(1, 2, 3, 4, d))
	if bytes.Equal(p, c) {
		t.Fatal("PREPARE and COMMIT share an encoding")
	}
}

// TestMsgTypeStrings walks the whole catalog: every type up to the last
// constant has its own name and a registered codec, codecCorpus holds a
// value of it, and no byte past the catalog decodes.
func TestMsgTypeStrings(t *testing.T) {
	inCorpus := make(map[MsgType]bool)
	for _, m := range codecCorpus() {
		inCorpus[m.Type()] = true
	}
	names := make(map[string]MsgType)
	for mt := MsgInvalid; mt < msgTypeEnd; mt++ {
		s, ok := msgTypeNames[mt]
		if !ok || s == "" {
			t.Fatalf("type %d has no name", mt)
		}
		if prev, dup := names[s]; dup {
			t.Fatalf("types %d and %d share the name %q", prev, mt, s)
		}
		names[s] = mt
		if mt == MsgInvalid {
			continue
		}
		if msgCodecs[mt].enc == nil || msgCodecs[mt].dec == nil {
			t.Fatalf("%s has no codec", mt)
		}
		if !inCorpus[mt] {
			t.Fatalf("%s has no value in codecCorpus", mt)
		}
	}
	if len(msgTypeNames) != int(msgTypeEnd) {
		t.Fatalf("%d names for %d types", len(msgTypeNames), msgTypeEnd)
	}
	for mt := msgTypeEnd; mt != 0; mt++ {
		if msgCodecs[mt].enc != nil {
			t.Fatalf("codec registered for type %d past the catalog", mt)
		}
	}
	if msgCodecs[MsgInvalid].enc != nil {
		t.Fatal("codec registered for MsgInvalid")
	}
	if MsgType(200).String() == "" {
		t.Fatal("unknown type has empty name")
	}
}

func TestMessageWireSizes(t *testing.T) {
	b := &Batch{Txns: make([]Transaction, 100)}
	pp := &PrePrepare{Batch: b}
	if pp.WireSize() != ProposalWireSize(100) {
		t.Fatal("preprepare wire size")
	}
	ppNil := &PrePrepare{}
	if ppNil.WireSize() != ConsensusMsgBytes {
		t.Fatal("digest-only preprepare wire size")
	}
	f := &Failure{State: []AcceptedProposal{{Batch: b}}}
	if f.WireSize() <= ConsensusMsgBytes {
		t.Fatal("failure with state should exceed base size")
	}
	fl := &Failure{Light: true, State: []AcceptedProposal{{Batch: b}}}
	if fl.WireSize() != ConsensusMsgBytes {
		t.Fatal("light failure should cost base size")
	}
}
