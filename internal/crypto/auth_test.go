package crypto

import (
	"bytes"
	"crypto/ed25519"
	"crypto/hmac"
	"crypto/sha256"
	"sync"
	"testing"

	"repro/internal/types"
)

// derivePerCall is the straightforward HMAC chain: it derives the pairwise
// key and runs the full HMAC key schedule on every call. NewMAC's tags must
// equal it byte for byte.
func derivePerCall(secret []byte, from, to uint32, payload []byte) []byte {
	h := hmac.New(sha256.New, derivePairKey(secret, from, to))
	h.Write(payload)
	return h.Sum(nil)
}

// TestMACCachedMatchesUncached pins the wire compatibility of the cached
// implementation: precomputed HMAC states must produce byte-identical tags
// to the derive-per-call HMAC chain, in both directions, across payload
// sizes.
func TestMACCachedMatchesUncached(t *testing.T) {
	secret := []byte("deployment-secret")
	cached := NewMAC(PartyID(0), secret)
	peer := NewMAC(PartyID(1), secret)
	for _, n := range []int{0, 1, 53, 64, 500, 4096} {
		payload := bytes.Repeat([]byte{0xA5}, n)
		ref := derivePerCall(secret, PartyID(0), PartyID(1), payload)
		if ct := cached.Tag(PartyID(1), payload); !bytes.Equal(ct, ref) {
			t.Fatalf("payload %dB: cached tag %x != reference %x", n, ct, ref)
		}
		if !peer.Verify(PartyID(0), payload, ref) {
			t.Fatalf("payload %dB: cached verify rejected the reference tag", n)
		}
		// The pair key is symmetric: the reverse direction matches too.
		if pt := peer.Tag(PartyID(0), payload); !bytes.Equal(pt, derivePerCall(secret, PartyID(1), PartyID(0), payload)) {
			t.Fatalf("payload %dB: reverse-direction tag diverges from the reference", n)
		}
	}
}

// TestMACAppendTag pins the allocation-free send path.
func TestMACAppendTag(t *testing.T) {
	a := NewMAC(PartyID(0), []byte("s")).(TagAppender)
	buf := make([]byte, 0, 64)
	out := a.AppendTag(PartyID(1), []byte("m"), buf)
	if len(out) != sha256.Size {
		t.Fatalf("appended tag is %d bytes, want %d", len(out), sha256.Size)
	}
	if !bytes.Equal(out, NewMAC(PartyID(0), []byte("s")).Tag(PartyID(1), []byte("m"))) {
		t.Fatal("AppendTag output differs from Tag")
	}
	prefix := []byte("prefix")
	out2 := a.AppendTag(PartyID(1), []byte("m"), prefix)
	if !bytes.Equal(out2[:6], []byte("prefix")) || !bytes.Equal(out2[6:], out) {
		t.Fatal("AppendTag did not append to the existing buffer")
	}
}

// TestMACConcurrent exercises the lazy pair-state cache from many
// goroutines (run under -race).
func TestMACConcurrent(t *testing.T) {
	a := NewMAC(PartyID(0), []byte("s"))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			peer := NewMAC(PartyID(types.ReplicaID(1+g%3)), []byte("s"))
			for i := 0; i < 500; i++ {
				payload := []byte{byte(g), byte(i)}
				tag := a.Tag(PartyID(types.ReplicaID(1+g%3)), payload)
				if !peer.Verify(PartyID(0), payload, tag) {
					t.Error("concurrent verify failed")
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestKeyRingFrozenAtConstruction pins the satellite fix: NewDS snapshots
// the ring, so a late Add can neither race Verify on transport goroutines
// (-race proves it) nor retroactively introduce new parties.
func TestKeyRingFrozenAtConstruction(t *testing.T) {
	pub, priv, err := GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	ring := NewKeyRing()
	ring.Add(PartyID(0), pub)
	verifier := NewDS(PartyID(1), nil, ring)
	sig := ed25519.Sign(priv, []byte("m"))

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			if !verifier.Verify(PartyID(0), []byte("m"), sig) {
				t.Error("valid signature rejected during concurrent Add")
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			ring.Add(PartyID(types.ReplicaID(100+i)), pub)
		}
	}()
	wg.Wait()

	// The snapshot does not see parties added after construction.
	if verifier.Verify(PartyID(100), []byte("m"), sig) {
		t.Fatal("late Add leaked into a constructed authenticator")
	}
}

func TestKeyRingSealPanicsOnAdd(t *testing.T) {
	ring := NewKeyRing().Seal()
	defer func() {
		if recover() == nil {
			t.Fatal("Add on a sealed ring did not panic")
		}
	}()
	ring.Add(0, make([]byte, ed25519.PublicKeySize))
}

// TestDSDevDeterministic pins the dev-mode keyring: all nodes sharing a
// secret verify each other (replicas and clients) with zero out-of-band
// provisioning, and different secrets are mutually unintelligible.
func TestDSDevDeterministic(t *testing.T) {
	secret := []byte("cluster-seed")
	r0 := NewDSDev(PartyID(0), secret)
	r1 := NewDSDev(PartyID(1), secret)
	cli := NewDSDev(ClientPartyID(7), secret)

	payload := []byte("vote")
	sig := r0.Tag(0, payload)
	if !r1.Verify(PartyID(0), payload, sig) {
		t.Fatal("replica did not verify peer replica's dev signature")
	}
	if !cli.Verify(PartyID(0), payload, sig) {
		t.Fatal("client did not verify replica's dev signature")
	}
	csig := cli.Tag(0, payload)
	if !r0.Verify(ClientPartyID(7), payload, csig) {
		t.Fatal("replica did not verify client's dev signature")
	}
	if r0.Verify(PartyID(1), payload, sig) {
		t.Fatal("signature attributed to the wrong party verified")
	}
	other := NewDSDev(PartyID(1), []byte("different-seed"))
	if other.Verify(PartyID(0), payload, sig) {
		t.Fatal("dev signature verified across different secrets")
	}
}

// TestBatchVerifierBisection: 1 bad signature in a batch of 64 rejects
// exactly that one (the ISSUE's pinned case), and multi-forgery batches
// isolate every bad index.
func TestBatchVerifierBisection(t *testing.T) {
	pub, priv, err := GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	build := func(n int, bad ...int) *BatchVerifier {
		isBad := map[int]bool{}
		for _, b := range bad {
			isBad[b] = true
		}
		var bv BatchVerifier
		for i := 0; i < n; i++ {
			payload := []byte{byte(i), byte(i >> 8)}
			sig := ed25519.Sign(priv, payload)
			if isBad[i] {
				sig[0] ^= 0xff
			}
			bv.Add(pub, payload, sig)
		}
		return &bv
	}

	bv := build(64)
	if !bv.Verify() || len(bv.Failed()) != 0 {
		t.Fatal("clean batch of 64 did not verify")
	}

	bv = build(64, 17)
	if bv.Verify() {
		t.Fatal("batch with a forged signature verified")
	}
	if got := bv.Failed(); len(got) != 1 || got[0] != 17 {
		t.Fatalf("Failed() = %v, want exactly [17]", got)
	}

	bv = build(64, 0, 31, 63)
	got := bv.Failed()
	if len(got) != 3 || got[0] != 0 || got[1] != 31 || got[2] != 63 {
		t.Fatalf("Failed() = %v, want [0 31 63]", got)
	}
}

// TestBatchVerifierBisectionCallPattern proves Failed() really bisects:
// with an injected counting backend, isolating 1 bad item of 64 takes
// O(log n) range checks, far fewer than the 64 a per-item sweep needs.
func TestBatchVerifierBisectionCallPattern(t *testing.T) {
	const n = 64
	const bad = 41
	var bv BatchVerifier
	for i := 0; i < n; i++ {
		bv.Add(nil, nil, nil)
	}
	calls := 0
	bv.checkFn = func(lo, hi int) bool {
		calls++
		return !(lo <= bad && bad < hi)
	}
	if got := bv.Failed(); len(got) != 1 || got[0] != bad {
		t.Fatalf("Failed() = %v, want [%d]", got, bad)
	}
	// Bisection on one bad item: 1 failing check per level plus at most one
	// sibling check per level — comfortably under 2*log2(64)+1 = 13.
	if calls > 13 {
		t.Fatalf("bisection used %d range checks for 1 bad of %d; not logarithmic", calls, n)
	}
}

func TestDSVerifyBatch(t *testing.T) {
	secret := []byte("seed")
	signer := NewDSDev(PartyID(2), secret)
	verifier := NewDSDev(PartyID(0), secret).(BatchAuthenticator)

	const n = 16
	payloads := make([][]byte, n)
	tags := make([][]byte, n)
	for i := range payloads {
		payloads[i] = []byte{byte(i)}
		tags[i] = signer.Tag(0, payloads[i])
	}
	tags[5] = append([]byte(nil), tags[5]...)
	tags[5][1] ^= 0x80

	ok := make([]bool, n)
	verifier.VerifyBatch(PartyID(2), payloads, tags, ok)
	for i, v := range ok {
		if (i == 5) == v {
			t.Fatalf("VerifyBatch ok[%d] = %v", i, v)
		}
	}

	// Unknown sender (non-dev authenticator, empty ring): everything false.
	empty := NewDS(PartyID(0), nil, NewKeyRing()).(BatchAuthenticator)
	for i := range ok {
		ok[i] = true
	}
	empty.VerifyBatch(PartyID(2), payloads, tags, ok)
	for i, v := range ok {
		if v {
			t.Fatalf("unknown sender accepted at %d", i)
		}
	}
}

// ---------------------------------------------------------------------------
// Attestations
// ---------------------------------------------------------------------------

func TestAttestRoundTrip(t *testing.T) {
	s := NewThresholdScheme(4, 3, []byte("dealer"))
	msg := []byte("checkpoint digest @ height 48")
	shares := map[uint32][]byte{}
	for p := uint32(0); p < 4; p++ {
		shares[p] = s.Share(p, msg)
	}
	at, err := s.Attest(msg, shares)
	if err != nil {
		t.Fatal(err)
	}
	if len(at.Signers) != 3 {
		t.Fatalf("attestation carries %d signers, want t=3", len(at.Signers))
	}
	if !s.VerifyAttestation(msg, at) {
		t.Fatal("valid attestation rejected")
	}
	if s.VerifyAttestation([]byte("other"), at) {
		t.Fatal("attestation verified for the wrong message")
	}

	wire := at.Marshal(nil)
	back, rest, err := UnmarshalAttestation(wire)
	if err != nil || len(rest) != 0 {
		t.Fatalf("unmarshal: %v (rest %d)", err, len(rest))
	}
	if !s.VerifyAttestation(msg, back) {
		t.Fatal("attestation did not survive the wire round trip")
	}

	// Tampered signer set must fail.
	back.Signers[0] = 3
	if s.VerifyAttestation(msg, back) {
		t.Fatal("attestation verified with a swapped signer set")
	}
}

func TestAttestInsufficientShares(t *testing.T) {
	s := NewThresholdScheme(4, 3, []byte("dealer"))
	msg := []byte("m")
	if _, err := s.Attest(msg, map[uint32][]byte{0: s.Share(0, msg)}); err == nil {
		t.Fatal("attested with fewer than t shares")
	}
}

func TestUnmarshalAttestationTruncated(t *testing.T) {
	s := NewThresholdScheme(4, 3, []byte("dealer"))
	msg := []byte("m")
	shares := map[uint32][]byte{}
	for p := uint32(0); p < 3; p++ {
		shares[p] = s.Share(p, msg)
	}
	at, _ := s.Attest(msg, shares)
	wire := at.Marshal(nil)
	for cut := 0; cut < len(wire); cut++ {
		if _, _, err := UnmarshalAttestation(wire[:cut]); err == nil {
			t.Fatalf("truncation at %d decoded", cut)
		}
	}
}

func TestParseScheme(t *testing.T) {
	for in, want := range map[string]Scheme{
		"": SchemeNone, "none": SchemeNone, "None": SchemeNone,
		"mac": SchemeMAC, "MAC": SchemeMAC, "ds": SchemeDS, "DS": SchemeDS,
	} {
		got, err := ParseScheme(in)
		if err != nil || got != want {
			t.Fatalf("ParseScheme(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseScheme("rsa"); err == nil {
		t.Fatal("unknown scheme parsed")
	}
}
