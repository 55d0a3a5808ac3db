package types

import (
	"bytes"
	"reflect"
	"testing"
)

// codecCorpus builds one fully-populated value of every message type in the
// catalog. Every field is non-zero so a codec that drops or reorders a field
// cannot round-trip.
func codecCorpus() []Message {
	d1 := Hash([]byte("d1"))
	d2 := Hash([]byte("d2"))
	d3 := Hash([]byte("d3"))
	batch := &Batch{Txns: []Transaction{
		{Client: 7, Seq: 3, Op: []byte("write x=1")},
		{Client: 9, Seq: 1, Op: []byte("read y")},
	}}
	props := []AcceptedProposal{
		{Round: 4, View: 2, Digest: d1, Batch: batch, Prepared: true},
		{Round: 5, View: 2, Digest: d2, Batch: nil, Prepared: false},
	}
	fail1 := &Failure{Header: Header{Inst: 3}, Replica: 1, Round: 9, State: props, Light: false}
	fail2 := &Failure{Header: Header{Inst: 3}, Replica: 2, Round: 9, Light: true}
	hundredSeqs := make([]uint64, 100) // one client's share of a full batch
	for i := range hundredSeqs {
		hundredSeqs[i] = uint64(1000 + 2*i)
	}

	return []Message{
		NewClientRequest(2, Transaction{Client: 5, Seq: 11, Op: []byte("op")}),
		NewClientRequest(2, fullEnvelope()...),
		NewClientReply(2, 3, 5, 6, d1, []uint64{11}),
		NewClientReply(2, 3, 5, 6, d1, hundredSeqs),
		&SwitchInstance{Header: Header{Inst: 1}, Client: 5, To: 2},
		&PrePrepare{Header: Header{Inst: 1}, View: 2, Round: 7, Digest: d1, Batch: batch},
		&PrePrepare{Header: Header{Inst: 1}, View: 2, Round: 7, Digest: d1}, // digest-only retransmission
		NewPrepare(1, 2, 3, 4, d2),
		NewCommit(1, 2, 3, 4, d2),
		&Checkpoint{Header: Header{Inst: 1}, Replica: 2, Round: 10, State: d3, Proposals: props},
		&ViewChange{Header: Header{Inst: 1}, Replica: 2, NewView: 4, StableCkp: 8, Prepared: props},
		&NewView{Header: Header{Inst: 1}, Replica: 3, NewView: 4, ViewProofs: []ReplicaID{0, 1, 2}, Reproposed: props},
		fail1,
		fail2,
		&Stop{Header: Header{Inst: CoordInstance(3)}, Target: 3, Evidence: []*Failure{fail1, fail2}},
		&StateOffer{Header: Header{Inst: 0}, Replica: 1, SnapHeight: 64, SnapSize: 4096,
			ChunkBytes: 1024, SnapAppHash: d1, SnapHeadHash: d2, SnapStateDigest: d3,
			TxnCount: 640, SnapSyncPoint: []byte{5, 6, 7}, Height: 70, HeadHash: d1, SyncPoint: []byte{1, 2, 3, 4}},
		&SnapshotRequest{Header: Header{Inst: 0}, Replica: 1, Height: 64, Chunk: 3},
		&SnapshotRequest{Header: Header{Inst: 0}, Replica: 1, Chunk: NoChunk}, // probe
		&SnapshotChunk{Header: Header{Inst: 0}, Replica: 1, Height: 64, Chunk: 3, Of: 4, Data: []byte("chunk bytes")},
		&BlockRangeRequest{Header: Header{Inst: 0}, Replica: 1, From: 64, To: 70},
		&BlockRange{Header: Header{Inst: 0}, Replica: 1, From: 64,
			Blocks: [][]byte{make([]byte, minEncodedBlockLen), make([]byte, minEncodedBlockLen+17)}},
	}
}

// envelopeCap is the largest request a client sends: internal/client caps
// one request at a full 100-transaction batch.
const envelopeCap = 100

// fullEnvelope is one client's transactions filling a request to the cap.
func fullEnvelope() []Transaction {
	txns := make([]Transaction, envelopeCap)
	for i := range txns {
		txns[i] = Transaction{Client: 5, Seq: uint64(20 + i), Op: []byte{byte(i), 'w'}}
	}
	return txns
}

// forgedRequest is a CLIENT-REQUEST claiming count transactions but
// carrying one.
func forgedRequest(count uint32) []byte {
	tx := Transaction{Client: 5, Seq: 1, Op: []byte("op")}
	buf := []byte{byte(MsgClientRequest)}
	buf = appendU16(buf, 2)     // inst
	buf = appendU32(buf, count) // forged txn count
	return tx.Marshal(buf)
}

// TestCodecRoundTripAllTypes is the completeness check the transport relies
// on: every message in the catalog must encode and decode back to a deeply
// equal value. A new message type without a codec fails here, not in
// production.
func TestCodecRoundTripAllTypes(t *testing.T) {
	seen := make(map[MsgType]bool)
	for _, m := range codecCorpus() {
		seen[m.Type()] = true
		enc, err := MarshalMessage(m)
		if err != nil {
			t.Fatalf("%T: marshal: %v", m, err)
		}
		got, err := DecodeMessage(enc)
		if err != nil {
			t.Fatalf("%T: decode: %v", m, err)
		}
		if !reflect.DeepEqual(got, m) {
			t.Fatalf("%T round-trip mismatch:\n got %#v\nwant %#v", m, got, m)
		}
	}
	// Every named MsgType except the invalid sentinel must be covered.
	for mt := range msgTypeNames {
		if mt != MsgInvalid && !seen[mt] {
			t.Errorf("corpus misses %v — add it and a codec", mt)
		}
	}
}

// TestCodecAppendSharesBuffer verifies the append-style API so transports
// can pool encode buffers.
func TestCodecAppendSharesBuffer(t *testing.T) {
	buf := make([]byte, 0, 1024)
	m1 := NewPrepare(1, 2, 3, 4, Hash([]byte("a")))
	m2 := NewCommit(5, 6, 7, 8, Hash([]byte("b")))
	buf, err := AppendMessage(buf, m1)
	if err != nil {
		t.Fatal(err)
	}
	split := len(buf)
	buf, err = AppendMessage(buf, m2)
	if err != nil {
		t.Fatal(err)
	}
	g1, err := DecodeMessage(buf[:split])
	if err != nil {
		t.Fatal(err)
	}
	g2, err := DecodeMessage(buf[split:])
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(g1, m1) || !reflect.DeepEqual(g2, m2) {
		t.Fatal("append-mode round trip mismatch")
	}
}

func TestCodecRejectsMalformedInput(t *testing.T) {
	if _, err := DecodeMessage(nil); err == nil {
		t.Fatal("empty input decoded")
	}
	if _, err := DecodeMessage([]byte{0xEE, 1, 2}); err == nil {
		t.Fatal("unknown tag decoded")
	}
	enc, err := MarshalMessage(&PrePrepare{Header: Header{Inst: 1}, View: 2, Round: 3,
		Digest: Hash([]byte("d")), Batch: &Batch{Txns: []Transaction{{Client: 1, Seq: 1, Op: []byte("x")}}}})
	if err != nil {
		t.Fatal(err)
	}
	// Every truncation must error, never panic or decode garbage.
	for i := 0; i < len(enc); i++ {
		if _, err := DecodeMessage(enc[:i]); err == nil {
			t.Fatalf("truncation at %d/%d decoded cleanly", i, len(enc))
		}
	}
	// Trailing bytes are a framing bug upstream; the codec must refuse them.
	if _, err := DecodeMessage(append(append([]byte(nil), enc...), 0x00)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

// TestCodecRejectsForgedCounts: element counts arrive from the network
// (pre-authentication on the transport's decode path), so a forged huge
// count must fail the buffer-derived bound instead of driving a giant
// allocation.
func TestCodecRejectsForgedCounts(t *testing.T) {
	var d Digest
	// Checkpoint claiming 2^32-1 proposals in a ~50-byte message.
	buf := []byte{byte(MsgCheckpoint)}
	buf = appendU16(buf, 1)          // inst
	buf = appendU16(buf, 2)          // replica
	buf = appendU64(buf, 3)          // round
	buf = append(buf, d[:]...)       // state
	buf = appendU32(buf, 0xFFFFFFFF) // forged proposal count
	if _, err := DecodeMessage(buf); err == nil {
		t.Fatal("forged proposal count decoded")
	}

	// PrePrepare whose batch claims 2^32-1 transactions.
	buf = []byte{byte(MsgPrePrepare)}
	buf = appendU16(buf, 1)          // inst
	buf = appendU64(buf, 2)          // view
	buf = appendU64(buf, 3)          // round
	buf = append(buf, d[:]...)       // digest
	buf = append(buf, 1)             // batch present
	buf = appendU32(buf, 0xFFFFFFFF) // forged txn count
	if _, err := DecodeMessage(buf); err == nil {
		t.Fatal("forged batch txn count decoded")
	}

	// Stop claiming 2^32-1 evidence failures.
	buf = []byte{byte(MsgStop)}
	buf = appendU16(buf, uint16(CoordInstance(1))) // inst
	buf = appendU16(buf, 1)                        // target
	buf = appendU32(buf, 0xFFFFFFFF)               // forged evidence count
	if _, err := DecodeMessage(buf); err == nil {
		t.Fatal("forged evidence count decoded")
	}

	// BlockRange claiming 2^32-1 blocks in a tiny frame: the count must
	// fail the buffer-derived bound (each block needs a 4-byte length
	// prefix plus at least minEncodedBlockLen bytes of body).
	buf = []byte{byte(MsgBlockRange)}
	buf = appendU16(buf, 0)          // inst
	buf = appendU16(buf, 1)          // replica
	buf = appendU64(buf, 64)         // from
	buf = appendU32(buf, 0xFFFFFFFF) // forged block count
	if _, err := DecodeMessage(buf); err == nil {
		t.Fatal("forged block count decoded")
	}

	// SnapshotChunk whose data length claims 2^32-1 bytes: blob() must
	// refuse, not allocate.
	buf = []byte{byte(MsgSnapshotChunk)}
	buf = appendU16(buf, 0)          // inst
	buf = appendU16(buf, 1)          // replica
	buf = appendU64(buf, 64)         // height
	buf = appendU32(buf, 0)          // chunk
	buf = appendU32(buf, 4)          // of
	buf = appendU32(buf, 0xFFFFFFFF) // forged data length
	buf = append(buf, 0xAB)          // one actual byte
	if _, err := DecodeMessage(buf); err == nil {
		t.Fatal("forged chunk data length decoded")
	}

	// StateOffer whose sync-point blob claims more bytes than the frame
	// holds.
	var off StateOffer
	enc2, err := MarshalMessage(&off)
	if err != nil {
		t.Fatal(err)
	}
	forged := append([]byte(nil), enc2...)
	// The sync-point length is the final u32 of the encoding.
	forged[len(forged)-1] = 0xFF
	forged[len(forged)-2] = 0xFF
	if _, err := DecodeMessage(forged); err == nil {
		t.Fatal("forged sync-point length decoded")
	}
}

// TestCodecRejectsForgedReplySeqCount: a CLIENT-REPLY's seq count arrives
// before authentication. Zero (a reply that answers nothing) and 2^32-1 on
// a short buffer must both be refused before any seq slice is allocated.
func TestCodecRejectsForgedReplySeqCount(t *testing.T) {
	var d Digest
	for _, count := range []uint32{0, 0xFFFFFFFF} {
		body := appendU16(nil, 1)     // inst
		body = appendU16(body, 2)     // replica
		body = appendU32(body, 3)     // client
		body = appendU64(body, 4)     // round
		body = append(body, d[:]...)  // result
		body = appendU32(body, count) // forged seq count
		body = appendU64(body, 7)     // one actual seq
		buf := append([]byte{byte(MsgClientReply)}, body...)
		if _, err := DecodeMessage(buf); err == nil {
			t.Fatalf("seq count %d decoded", count)
		}
		seqsAt := len(body) - 12
		allocs := testing.AllocsPerRun(100, func() {
			r := Reader{b: body[seqsAt:]}
			if r.Seqs() != nil || r.err == nil {
				t.Fatalf("seq count %d accepted", count)
			}
		})
		if allocs != 0 {
			t.Fatalf("seq count %d: refusing it allocated %v times", count, allocs)
		}
	}
}

// TestCodecRejectsForgedRequestTxnCount: a CLIENT-REQUEST's transaction
// count arrives before authentication. Zero (an empty request, whose Txns[0]
// readers would index out of range) and a count beyond what the remaining
// bytes can hold must both be refused before any transaction slice is
// allocated.
func TestCodecRejectsForgedRequestTxnCount(t *testing.T) {
	for _, count := range []uint32{0, 0xFFFFFFFF} {
		buf := forgedRequest(count)
		if _, err := DecodeMessage(buf); err == nil {
			t.Fatalf("txn count %d decoded", count)
		}
		allocs := testing.AllocsPerRun(100, func() {
			r := Reader{b: buf[3:]}
			if r.Txns() != nil || r.err == nil {
				t.Fatalf("txn count %d accepted", count)
			}
		})
		if allocs != 0 {
			t.Fatalf("txn count %d: refusing it allocated %v times", count, allocs)
		}
	}
	if _, err := DecodeMessage(forgedRequest(1)); err != nil {
		t.Fatalf("honest one-txn request refused: %v", err)
	}
}

// TestClientRequestCarriesEveryTxn: a request of one txn and a request at
// the cap both round-trip with every transaction and the derived Tx, and one
// tag covers all of them — changing or dropping any one transaction changes
// the authenticated bytes.
func TestClientRequestCarriesEveryTxn(t *testing.T) {
	for _, txns := range [][]Transaction{fullEnvelope()[:1], fullEnvelope()} {
		m := NewClientRequest(3, txns...)
		enc, err := MarshalMessage(m)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeMessage(enc)
		if err != nil {
			t.Fatalf("k=%d: %v", len(txns), err)
		}
		req := got.(*ClientRequest)
		if !reflect.DeepEqual(req.Txns, txns) || !reflect.DeepEqual(req.Tx, txns[0]) {
			t.Fatalf("k=%d: decoded %d txns, Tx %+v", len(txns), len(req.Txns), req.Tx)
		}
		if m.WireSize() != len(txns)*ClientRequestBytes {
			t.Fatalf("k=%d: wire size %d", len(txns), m.WireSize())
		}
	}
	// The transport authenticates the encoded bytes, so every transaction
	// must reach them.
	txns := fullEnvelope()
	enc := func(txns []Transaction) []byte { return authBytes(t, NewClientRequest(3, txns...)) }
	base := enc(txns)
	for i := range txns {
		forged := append([]Transaction(nil), txns...)
		forged[i].Seq++
		if bytes.Equal(enc(forged), base) {
			t.Fatalf("changing txn %d left the encoding unchanged", i)
		}
	}
	if bytes.Equal(enc(txns[:len(txns)-1]), base) {
		t.Fatal("dropping a txn left the encoding unchanged")
	}
}
