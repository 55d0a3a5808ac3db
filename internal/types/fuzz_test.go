package types

import (
	"encoding/binary"
	"encoding/hex"
	"reflect"
	"slices"
	"testing"
)

// FuzzDecodeMessage feeds hostile bytes to the decoder the transports run
// on every received record. With authentication on, only a frame whose tag
// held reaches it, but an unauthenticated transport, or an authenticated
// Byzantine peer, can still hand it anything. No input may panic, and
// any input that decodes must re-encode to bytes that decode to the same
// value. Seeds: every message of the round-trip corpus and each of its
// truncations, client requests of one transaction and at the cap, requests
// claiming zero or more transactions than they carry, a 100-txn proposal
// with empty ops, whole and with one op length forged, each wire-v5,
// wire-v6 or wire-v8 record of a removed message type, and each wire-v12
// record of a type v13 removed or re-laid-out, with each of its
// truncations.
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
	opLenAt := len(enc) - full.EncodedLen() + 4 + 12 // past the txn count and the first client and seq
	binary.BigEndian.PutUint32(forged[opLenAt:], 0xFFFFFF00)
	if _, err := DecodeMessage(forged); err == nil {
		f.Fatal("proposal with a forged op length decoded")
	}
	f.Add(forged)
	for _, h := range slices.Concat(removedV5Records, removedV6Records, removedV8Records, v12Records) {
		enc, err := hex.DecodeString(h)
		if err != nil {
			f.Fatal(err)
		}
		for i := 0; i <= len(enc); i++ {
			f.Add(enc[:i])
		}
	}
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

// removedV5Records are records a wire-v5 build encoded for the seven
// message types v6 removed: SPEC-RESPONSE, COMMIT-CERT, LOCAL-COMMIT,
// I-HATE-THE-PRIMARY, HS-PROPOSAL, HS-VOTE and HS-NEW-VIEW. Type bytes are
// positional, so a later build reads each of them as a different message
// (0x0d is SNAPSHOT-REQUEST at v9) or as an unknown type (0x16). The handshake
// refuses v5 peers; these seeds check that the decoder stays safe if such
// bytes reach it anyway.
var removedV5Records = []string{
	"0d00000001000000000000000200000000000000038b53639f152c8fc6ef30802fde462ba0be9cf085f7580dc69efd72e002abbb35e788103ee15318fcd2af9b73b4ebbb33a903b020de7b307d71f5fed0f433e5480000000500000064",
	"0e000000000005000000000000000200000000000000038b53639f152c8fc6ef30802fde462ba0be9cf085f7580dc69efd72e002abbb3500000003000000010003",
	"0f00000001000000000000000200000000000000038b53639f152c8fc6ef30802fde462ba0be9cf085f7580dc69efd72e002abbb3500000005",
	"11000000010000000000000002",
	"1600000001000000000000000200000000000000038b53639f152c8fc6ef30802fde462ba0be9cf085f7580dc69efd72e002abbb35e788103ee15318fcd2af9b73b4ebbb33a903b020de7b307d71f5fed0f433e548010000000200000007000000000000000300000009777269746520783d310000000900000000000000010000000672656164207900000000000000030000000000000008f451a61749c611ba0fa0e16c61831db44f38c611dff25879cf271a24c81a88b600000003000000020003",
	"170000000100000000000000020000000000000003f451a61749c611ba0fa0e16c61831db44f38c611dff25879cf271a24c81a88b60000000109",
	"1800000001000000000000000200000000000000030000000000000008f451a61749c611ba0fa0e16c61831db44f38c611dff25879cf271a24c81a88b600000003000000020003",
}

// removedV6Records are records a wire-v6 build encoded for the six message
// types v7 removed: ORDER-REQ, FILL-HOLE, SIGN-SHARE, FULL-COMMIT-PROOF,
// SIGN-STATE-SHARE and FULL-EXECUTE-PROOF. v7 reads their type bytes
// 0x0c-0x11 as EPOCH-CHANGE through BLOCK-RANGE-REQUEST.
var removedV6Records = []string{
	"0c0000000000000000000100000000000000028b53639f152c8fc6ef30802fde462ba0be9cf085f7580dc69efd72e002abbb35e788103ee15318fcd2af9b73b4ebbb33a903b020de7b307d71f5fed0f433e548010000000200000007000000000000000300000009777269746520783d3100000009000000000000000100000006726561642079",
	"0d00000001000000000000000200000000000000030000000000000009",
	"0e00000001000000000000000200000000000000038b53639f152c8fc6ef30802fde462ba0be9cf085f7580dc69efd72e002abbb3500000003010203",
	"0f00000001000000000000000200000000000000038b53639f152c8fc6ef30802fde462ba0be9cf085f7580dc69efd72e002abbb35000000020405",
	"10000000010000000000000003e788103ee15318fcd2af9b73b4ebbb33a903b020de7b307d71f5fed0f433e5480000000106",
	"11000000010000000000000003e788103ee15318fcd2af9b73b4ebbb33a903b020de7b307d71f5fed0f433e548000000020708",
}

// removedV8Records are records a wire-v8 build encoded for the two message
// types v9 removed with the Mir-BFT comparator: EPOCH-CHANGE and NEW-EPOCH.
// v9 reads their type bytes 0x0c and 0x0d as STATE-OFFER and
// SNAPSHOT-REQUEST.
var removedV8Records = []string{
	"0c00000001000000000000000500020000000000000007",
	"0d00000001000000000000000500000003000000010003000000000000000c",
}

// v12Records are records a wire-v12 build encoded for what v13 changed: a
// STATE-OFFER in v12's field order, carrying a threshold attestation after
// the live frontier, and CHECKPOINT-ATTEST, which v13 removed (its type
// byte 0x11 lies past the catalog).
var v12Records = []string{
	"0c0000000100000000000000400000000000001000000004008b53639f152c8fc6ef30802fde462ba0be9cf085f7580dc69efd72e002abbb35e788103ee15318fcd2af9b73b4ebbb33a903b020de7b307d71f5fed0f433e548f451a61749c611ba0fa0e16c61831db44f38c611dff25879cf271a24c81a88b6000000000000028000000000000000468b53639f152c8fc6ef30802fde462ba0be9cf085f7580dc69efd72e002abbb35000000040102030400000003050607000000020809",
	"11000000010000000000000040e788103ee15318fcd2af9b73b4ebbb33a903b020de7b307d71f5fed0f433e54800000003010203",
}
