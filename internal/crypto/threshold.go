package crypto

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
)

// ThresholdScheme is the interface of a (t, n) threshold signature scheme:
// t shares from distinct parties combine into one constant-size proof,
// checked against the signer set. Checkpoint-boundary attestation
// (internal/statesync) uses it.
//
// This implementation simulates the interface with HMAC shares combined into
// a deterministic aggregate: a share is HMAC(k_i, msg), where the share key
// k_i is derived from the group secret, and the combined signature is the
// hash of the t lexicographically-smallest signer IDs with their shares.
//
// It is not a threshold signature. Every party holds the group secret, so any
// one party can derive every share key and produce any share and any
// combined proof: a proof shows that t parties signed only when no holder of
// the group secret lies. It also offers no signer anonymity and no
// verification against a single group public key.
type ThresholdScheme struct {
	n         int
	threshold int
	group     []byte   // group secret all parties share (trusted dealer)
	keys      sync.Map // party -> []byte share key, derived once
}

// NewThresholdScheme creates a (threshold, n) scheme from a dealer secret.
func NewThresholdScheme(n, threshold int, secret []byte) *ThresholdScheme {
	cp := append([]byte(nil), secret...)
	return &ThresholdScheme{n: n, threshold: threshold, group: cp}
}

// Threshold returns t.
func (s *ThresholdScheme) Threshold() int { return s.threshold }

// shareKey returns party's share key, deriving it on first use — repeated
// shares and verifications (every checkpoint, every statesync offer) skip
// the HMAC key schedule.
func (s *ThresholdScheme) shareKey(party uint32) []byte {
	if k, ok := s.keys.Load(party); ok {
		return k.([]byte)
	}
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], party)
	h := hmac.New(sha256.New, s.group)
	h.Write(b[:])
	k, _ := s.keys.LoadOrStore(party, h.Sum(nil))
	return k.([]byte)
}

// Share produces party's signature share over msg.
func (s *ThresholdScheme) Share(party uint32, msg []byte) []byte {
	h := hmac.New(sha256.New, s.shareKey(party))
	h.Write(msg)
	return h.Sum(nil)
}

// VerifyShare checks that share is party's share over msg.
func (s *ThresholdScheme) VerifyShare(party uint32, msg, share []byte) bool {
	return hmac.Equal(s.Share(party, msg), share)
}

// Combine merges at least t valid shares (keyed by party) into a combined
// signature. Returns nil if fewer than t shares are supplied or any share
// fails verification.
func (s *ThresholdScheme) Combine(msg []byte, shares map[uint32][]byte) []byte {
	if len(shares) < s.threshold {
		return nil
	}
	parties := make([]uint32, 0, len(shares))
	for p, sh := range shares {
		if !s.VerifyShare(p, msg, sh) {
			return nil
		}
		parties = append(parties, p)
	}
	sort.Slice(parties, func(i, j int) bool { return parties[i] < parties[j] })
	parties = parties[:s.threshold]
	h := sha256.New()
	h.Write(s.group)
	h.Write(msg)
	var b [4]byte
	for _, p := range parties {
		binary.BigEndian.PutUint32(b[:], p)
		h.Write(b[:])
		h.Write(shares[p])
	}
	return h.Sum(nil)
}

// Attestation is a constant-size, serializable aggregate of t threshold
// shares over a message: the signer set plus the combined signature. It is
// the groundwork for checkpoint and statesync offer attestation (ROADMAP
// item 5) — a replica that gathers t shares over a checkpoint digest can
// attach one Attestation to its offer, and a fetcher verifies it against
// the group scheme instead of demanding f+1 byte-identical offers from
// quiescent-enough peers.
type Attestation struct {
	// Signers is the sorted set of parties whose shares were combined
	// (exactly t of them).
	Signers []uint32
	// Sig is the combined signature over the attested message.
	Sig []byte
}

// Attest combines at least t valid shares (keyed by party) into a
// verifiable Attestation.
func (s *ThresholdScheme) Attest(msg []byte, shares map[uint32][]byte) (*Attestation, error) {
	sig := s.Combine(msg, shares)
	if sig == nil {
		return nil, fmt.Errorf("crypto: attest: %d shares, need %d valid", len(shares), s.threshold)
	}
	parties := make([]uint32, 0, len(shares))
	for p := range shares {
		parties = append(parties, p)
	}
	sort.Slice(parties, func(i, j int) bool { return parties[i] < parties[j] })
	return &Attestation{Signers: parties[:s.threshold], Sig: sig}, nil
}

// VerifyAttestation checks an Attestation over msg.
func (s *ThresholdScheme) VerifyAttestation(msg []byte, at *Attestation) bool {
	return at != nil && s.VerifyCombined(msg, at.Signers, at.Sig)
}

// Marshal appends the attestation's wire encoding to buf:
// count(u16) signer(u32)* sigLen(u16) sig.
func (at *Attestation) Marshal(buf []byte) []byte {
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(at.Signers)))
	for _, p := range at.Signers {
		buf = binary.BigEndian.AppendUint32(buf, p)
	}
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(at.Sig)))
	return append(buf, at.Sig...)
}

// UnmarshalAttestation decodes one attestation from b, returning the
// remainder of the buffer.
func UnmarshalAttestation(b []byte) (*Attestation, []byte, error) {
	if len(b) < 2 {
		return nil, b, fmt.Errorf("crypto: attestation truncated")
	}
	n := int(binary.BigEndian.Uint16(b))
	b = b[2:]
	if len(b) < 4*n+2 {
		return nil, b, fmt.Errorf("crypto: attestation signer set truncated")
	}
	at := &Attestation{Signers: make([]uint32, n)}
	for i := 0; i < n; i++ {
		at.Signers[i] = binary.BigEndian.Uint32(b)
		b = b[4:]
	}
	sl := int(binary.BigEndian.Uint16(b))
	b = b[2:]
	if len(b) < sl {
		return nil, b, fmt.Errorf("crypto: attestation signature truncated")
	}
	at.Sig = append([]byte(nil), b[:sl]...)
	return at, b[sl:], nil
}

// VerifyCombined checks a combined signature over msg given the claimed
// signer set (which must contain at least t parties).
func (s *ThresholdScheme) VerifyCombined(msg []byte, signers []uint32, combined []byte) bool {
	if len(signers) < s.threshold {
		return false
	}
	shares := make(map[uint32][]byte, len(signers))
	for _, p := range signers {
		shares[p] = s.Share(p, msg)
	}
	want := s.Combine(msg, shares)
	return want != nil && hmac.Equal(want, combined)
}
