package types

import (
	"encoding/binary"
	"reflect"
	"testing"
)

// FuzzDecodeMessage feeds hostile bytes to the decoder the transports run
// on every received record. With authentication on, only a frame whose tag
// held reaches it, but an unauthenticated transport, or an authenticated
// Byzantine peer, can still hand it anything. No input may panic, and
// any input that decodes must re-encode to bytes that decode to the same
// value. Seeds: every message of the round-trip corpus and each of its
// truncations, client requests of one transaction and at the cap, requests
// claiming zero or more transactions than they carry, and a 100-txn
// proposal with empty ops, whole and with one op length forged.
//
//	go test -run '^$' -fuzz FuzzDecodeMessage -fuzztime 20s ./internal/types
func FuzzDecodeMessage(f *testing.F) {
	for _, m := range codecCorpus() {
		enc, err := MarshalMessage(m)
		if err != nil {
			f.Fatalf("%T: marshal: %v", m, err)
		}
		for i := 0; i <= len(enc); i++ {
			f.Add(enc[:i])
		}
	}
	for _, m := range []Message{NewClientRequest(1, fullEnvelope()[0]), NewClientRequest(1, fullEnvelope()...)} {
		enc, err := MarshalMessage(m)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(enc)
	}
	f.Add(forgedRequest(0))
	f.Add(forgedRequest(0xFFFFFFFF))
	// A full proposal whose ops share one decode allocation, with empty ops
	// among them, and the same proposal with one op length forged past the
	// end of the frame.
	full := hundredTxnBatch()
	full.Txns[3].Op, full.Txns[60].Op = nil, nil
	enc, err := MarshalMessage(&PrePrepare{Header: Header{Inst: 1}, View: 2, Round: 3, Digest: full.Digest(), Batch: full})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(enc)
	forged := append([]byte(nil), enc...)
	opLenAt := len(enc) - full.encodedLen() + 4 + 12 // past the txn count and the first client and seq
	binary.BigEndian.PutUint32(forged[opLenAt:], 0xFFFFFF00)
	if _, err := DecodeMessage(forged); err == nil {
		f.Fatal("proposal with a forged op length decoded")
	}
	f.Add(forged)
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := DecodeMessage(b)
		if err != nil {
			return
		}
		enc, err := MarshalMessage(m)
		if err != nil {
			t.Fatalf("decoded %v does not re-encode: %v", m.Type(), err)
		}
		again, err := DecodeMessage(enc)
		if err != nil {
			t.Fatalf("re-encoded %v does not decode: %v", m.Type(), err)
		}
		if !reflect.DeepEqual(again, m) {
			t.Fatalf("%v changed across re-encoding:\n got %#v\nwant %#v", m.Type(), again, m)
		}
	})
}
