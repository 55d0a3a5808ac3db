// Package crypto provides the message-authentication primitives used by the
// consensus protocols: no authentication (baseline), HMAC-SHA256 message
// authentication codes (standing in for the paper's CMAC-AES), and ED25519
// digital signatures, plus a threshold-signature scheme for SBFT and
// HotStuff.
//
// The live-path implementations are built for line rate: the MAC
// authenticator derives each pairwise key once and keeps the HMAC inner and
// outer SHA-256 states precomputed (Tag/Verify then cost two short hash
// finalizations, no key schedule, no allocations on the Verify path), the DS
// authenticator freezes its public-key ring at construction so verification
// never races provisioning. BatchVerifier checks many same-sender
// signatures with bisection to isolate bad ones; since the transport signs
// whole frames it has no program caller.
//
// The package also exports the per-operation CPU cost table used by the
// simulators: the paper (§V-B, Fig. 7 right) reports that digital signatures
// reduce PBFT throughput by 86% and MACs by 33% relative to no
// authentication; the costs below reproduce those ratios.
package crypto

import (
	"crypto/ed25519"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding"
	"encoding/binary"
	"fmt"
	"hash"
	"strings"
	"sync"
	"time"

	"repro/internal/types"
)

// Scheme selects the authentication scheme for replica-to-replica messages.
type Scheme uint8

// Authentication schemes (paper Fig. 7 right: None / DS / MAC).
const (
	SchemeNone Scheme = iota // no authentication (baseline)
	SchemeMAC                // HMAC-SHA256 pairwise MACs (CMAC-AES in the paper)
	SchemeDS                 // ED25519 digital signatures
)

func (s Scheme) String() string {
	switch s {
	case SchemeNone:
		return "None"
	case SchemeMAC:
		return "MAC"
	case SchemeDS:
		return "DS"
	}
	return fmt.Sprintf("Scheme(%d)", uint8(s))
}

// ParseScheme parses the -auth flag values used by rccnode and rccclient.
// The empty string means no authentication.
func ParseScheme(s string) (Scheme, error) {
	switch strings.ToLower(s) {
	case "", "none":
		return SchemeNone, nil
	case "mac":
		return SchemeMAC, nil
	case "ds":
		return SchemeDS, nil
	}
	return SchemeNone, fmt.Errorf("crypto: unknown auth scheme %q (want none, mac, or ds)", s)
}

// ParseAuth resolves rccnode and rccclient's -auth and -auth-secret flags
// into party's authenticator; none (or empty) yields a nil Authenticator,
// which the transport treats as no authentication.
func ParseAuth(scheme, secret string, party uint32) (Authenticator, error) {
	s, err := ParseScheme(scheme)
	if err != nil || s == SchemeNone {
		return nil, err
	}
	return NewAuth(s, party, []byte(secret))
}

// Simulated per-operation CPU costs. Calibrated so that, with the paper's
// message mix, DS costs ≈ 86% throughput and MAC ≈ 33% (Fig. 7 right).
const (
	CostMACGen     = 2 * time.Microsecond
	CostMACVerify  = 2 * time.Microsecond
	CostDSSign     = 55 * time.Microsecond
	CostDSVerify   = 130 * time.Microsecond
	CostShareGen   = 60 * time.Microsecond  // threshold share
	CostCombine    = 150 * time.Microsecond // combine nf shares
	CostThreshVrfy = 140 * time.Microsecond // verify combined signature
)

// SignCost returns the simulated CPU time to authenticate one outgoing
// message under scheme s. For MACs the cost is per recipient (a broadcast
// needs one MAC per receiver); callers multiply accordingly.
func SignCost(s Scheme) time.Duration {
	switch s {
	case SchemeMAC:
		return CostMACGen
	case SchemeDS:
		return CostDSSign
	default:
		return 0
	}
}

// VerifyCost returns the simulated CPU time to verify one incoming message.
func VerifyCost(s Scheme) time.Duration {
	switch s {
	case SchemeMAC:
		return CostMACVerify
	case SchemeDS:
		return CostDSVerify
	default:
		return 0
	}
}

// Authenticator authenticates messages between a fixed set of parties.
// Implementations are safe for concurrent use after construction.
type Authenticator interface {
	// Scheme reports the underlying scheme.
	Scheme() Scheme
	// Tag authenticates payload from the local party to party `to`.
	Tag(to uint32, payload []byte) []byte
	// Verify checks a tag on payload claimed to be from party `from`
	// addressed to the local party.
	Verify(from uint32, payload, tag []byte) bool
}

// TagAppender is implemented by authenticators whose Tag can append into a
// caller-provided buffer, keeping hot send paths allocation-free. The MAC
// authenticator implements it; ED25519 signing allocates inside the standard
// library either way.
type TagAppender interface {
	// AppendTag appends the tag over payload (addressed to party `to`) to
	// dst and returns the extended slice.
	AppendTag(to uint32, payload, dst []byte) []byte
}

// BatchAuthenticator is implemented by authenticators that can verify many
// payloads from one sender as a unit. ok[i] reports the verdict for
// (payloads[i], tags[i]). The transport no longer calls it: one tag covers a
// whole frame.
type BatchAuthenticator interface {
	VerifyBatch(from uint32, payloads, tags [][]byte, ok []bool)
}

// PartyID builds the uint32 party identifier for a replica.
func PartyID(r types.ReplicaID) uint32 { return uint32(r) }

// ClientPartyID builds the uint32 party identifier for a client. Client IDs
// live in a disjoint range above all replica IDs.
func ClientPartyID(c types.ClientID) uint32 { return uint32(c) | 1<<31 }

// ---------------------------------------------------------------------------
// None
// ---------------------------------------------------------------------------

type noneAuth struct{}

// NewNone returns an Authenticator that performs no authentication.
func NewNone() Authenticator { return noneAuth{} }

// NewAuth builds party's authenticator for scheme from one shared secret:
// nothing for SchemeNone, cached pairwise HMACs for SchemeMAC, and the
// deterministic dev ED25519 keyring for SchemeDS. This is the provisioning
// model of rccnode/rccclient's -auth flag — one secret distributed to the
// deployment, per-party keys derived from it. Production DS deployments
// should provision real keys via NewDS and a sealed KeyRing instead.
func NewAuth(s Scheme, party uint32, secret []byte) (Authenticator, error) {
	switch s {
	case SchemeNone:
		return NewNone(), nil
	case SchemeMAC:
		if len(secret) == 0 {
			return nil, fmt.Errorf("crypto: scheme mac requires a shared secret")
		}
		return NewMAC(party, secret), nil
	case SchemeDS:
		if len(secret) == 0 {
			return nil, fmt.Errorf("crypto: scheme ds requires a shared secret (dev keyring seed)")
		}
		return NewDSDev(party, secret), nil
	}
	return nil, fmt.Errorf("crypto: unknown scheme %v", s)
}

func (noneAuth) Scheme() Scheme                     { return SchemeNone }
func (noneAuth) Tag(uint32, []byte) []byte          { return nil }
func (noneAuth) Verify(uint32, []byte, []byte) bool { return true }

// ---------------------------------------------------------------------------
// MAC (HMAC-SHA256 with pairwise keys derived from a shared system secret)
// ---------------------------------------------------------------------------

// shaDigest is the concrete capability set of a sha256 digest: its state
// can be exported once and reimported per operation, which is what lets a
// precomputed HMAC key schedule be reused without re-hashing the key pads.
type shaDigest interface {
	hash.Hash
	encoding.BinaryMarshaler
	encoding.BinaryUnmarshaler
}

// macScratch bundles one pooled sha256 digest with the intermediate sum
// buffers, so neither the inner digest nor a Verify comparison target ever
// escapes to a per-call heap allocation.
type macScratch struct {
	h     shaDigest
	inner [sha256.Size]byte
	out   [sha256.Size]byte
}

// shaPool recycles digest scratch across Tag/Verify calls; every use fully
// overwrites the hash state via UnmarshalBinary, so reuse is safe.
var shaPool = sync.Pool{New: func() any { return &macScratch{h: sha256.New().(shaDigest)} }}

// hmacState is the precomputed key schedule of one HMAC-SHA256 key: the
// serialized sha256 states after absorbing the inner (key^ipad) and outer
// (key^opad) blocks. Tagging a payload is then inner-resume + payload +
// finalize, outer-resume + digest + finalize — two short hash runs with no
// key processing.
type hmacState struct {
	ipad, opad []byte
}

func newHMACState(key []byte) *hmacState {
	var block [sha256.BlockSize]byte
	if len(key) > sha256.BlockSize {
		sum := sha256.Sum256(key)
		key = sum[:]
	}
	copy(block[:], key)
	for i := range block {
		block[i] ^= 0x36
	}
	h := sha256.New().(shaDigest)
	h.Write(block[:])
	ipad, _ := h.MarshalBinary()
	for i := range block {
		block[i] ^= 0x36 ^ 0x5c
	}
	h = sha256.New().(shaDigest)
	h.Write(block[:])
	opad, _ := h.MarshalBinary()
	return &hmacState{ipad: ipad, opad: opad}
}

// appendSum appends the 32-byte HMAC of payload to dst.
func (st *hmacState) appendSum(dst, payload []byte) []byte {
	sc := shaPool.Get().(*macScratch)
	st.sumInto(sc, payload)
	dst = append(dst, sc.out[:]...)
	shaPool.Put(sc)
	return dst
}

// verify recomputes the HMAC of payload and compares it to tag without
// allocating.
func (st *hmacState) verify(payload, tag []byte) bool {
	sc := shaPool.Get().(*macScratch)
	st.sumInto(sc, payload)
	eq := hmac.Equal(sc.out[:], tag)
	shaPool.Put(sc)
	return eq
}

// sumInto computes the HMAC of payload into sc.out.
func (st *hmacState) sumInto(sc *macScratch, payload []byte) {
	h := sc.h
	if err := h.UnmarshalBinary(st.ipad); err != nil {
		panic("crypto: resuming hmac inner state: " + err.Error())
	}
	h.Write(payload)
	h.Sum(sc.inner[:0])
	if err := h.UnmarshalBinary(st.opad); err != nil {
		panic("crypto: resuming hmac outer state: " + err.Error())
	}
	h.Write(sc.inner[:])
	h.Sum(sc.out[:0])
}

type macAuth struct {
	self   uint32
	secret []byte
	states sync.Map // peer party -> *hmacState, built lazily, never evicted
}

// NewMAC returns a MAC authenticator for party self. All parties of a
// deployment must share the same system secret; pairwise keys are derived
// from it, mirroring how ResilientDB provisions CMAC-AES keys out of band.
//
// Each peer's key schedule is derived once on first use and cached, so
// steady-state Tag/Verify never re-derive the pairwise key.
func NewMAC(self uint32, secret []byte) Authenticator {
	cp := append([]byte(nil), secret...)
	return &macAuth{self: self, secret: cp}
}

func (a *macAuth) Scheme() Scheme { return SchemeMAC }

// state returns the cached HMAC key schedule for the {self, peer} pair.
// The pair key is symmetric, so one state serves both Tag and Verify.
func (a *macAuth) state(peer uint32) *hmacState {
	if st, ok := a.states.Load(peer); ok {
		return st.(*hmacState)
	}
	st := newHMACState(derivePairKey(a.secret, a.self, peer))
	actual, _ := a.states.LoadOrStore(peer, st)
	return actual.(*hmacState)
}

func (a *macAuth) Tag(to uint32, payload []byte) []byte {
	return a.state(to).appendSum(make([]byte, 0, sha256.Size), payload)
}

// AppendTag implements TagAppender: the hot send path appends the tag
// straight into the frame buffer, allocation-free.
func (a *macAuth) AppendTag(to uint32, payload, dst []byte) []byte {
	return a.state(to).appendSum(dst, payload)
}

func (a *macAuth) Verify(from uint32, payload, tag []byte) bool {
	return a.state(from).verify(payload, tag)
}

// derivePairKey derives the symmetric key for the unordered pair {x, y}
// from the shared system secret.
func derivePairKey(secret []byte, x, y uint32) []byte {
	if x > y {
		x, y = y, x
	}
	var b [8]byte
	binary.BigEndian.PutUint32(b[:4], x)
	binary.BigEndian.PutUint32(b[4:], y)
	h := hmac.New(sha256.New, secret)
	h.Write(b[:])
	return h.Sum(nil)
}

// ---------------------------------------------------------------------------
// DS (ED25519)
// ---------------------------------------------------------------------------

// KeyRing holds the ED25519 public keys of all parties in a deployment.
// Populate it during setup with Add, then freeze it with Seal (or let NewDS
// snapshot it): verification runs on concurrent transport goroutines and
// must never observe a mutating map.
type KeyRing struct {
	mu     sync.Mutex
	sealed bool
	pubs   map[uint32]ed25519.PublicKey
}

// NewKeyRing creates an empty key ring.
func NewKeyRing() *KeyRing { return &KeyRing{pubs: make(map[uint32]ed25519.PublicKey)} }

// Add registers the public key of a party. Panics once the ring is sealed —
// provisioning after verification has started is a deployment bug, not a
// race to paper over.
func (kr *KeyRing) Add(party uint32, pub ed25519.PublicKey) {
	kr.mu.Lock()
	defer kr.mu.Unlock()
	if kr.sealed {
		panic("crypto: KeyRing.Add after Seal")
	}
	kr.pubs[party] = pub
}

// Seal freezes the ring: further Adds panic. Returns the ring for chaining.
func (kr *KeyRing) Seal() *KeyRing {
	kr.mu.Lock()
	kr.sealed = true
	kr.mu.Unlock()
	return kr
}

// snapshot returns an immutable copy of the ring's current contents.
func (kr *KeyRing) snapshot() map[uint32]ed25519.PublicKey {
	kr.mu.Lock()
	defer kr.mu.Unlock()
	cp := make(map[uint32]ed25519.PublicKey, len(kr.pubs))
	for p, k := range kr.pubs {
		cp[p] = k
	}
	return cp
}

type dsAuth struct {
	self uint32
	priv ed25519.PrivateKey
	// pubs is an immutable snapshot taken at construction (NewDS); a late
	// KeyRing.Add can neither race nor affect this authenticator.
	pubs map[uint32]ed25519.PublicKey
	// dev, when set, derives unknown parties' keys on demand from the
	// shared dev seed (NewDSDev); devPubs caches the derivations.
	dev     []byte
	devPubs sync.Map // party -> ed25519.PublicKey
}

// NewDS returns a digital-signature authenticator for party self. The ring
// is copied at construction: register every party before calling, and use
// KeyRing.Seal to make late provisioning fail loudly.
func NewDS(self uint32, priv ed25519.PrivateKey, ring *KeyRing) Authenticator {
	return &dsAuth{self: self, priv: priv, pubs: ring.snapshot()}
}

// NewDSDev returns a digital-signature authenticator whose entire key
// universe is derived deterministically from a shared secret: party p's
// keypair is ed25519.NewKeyFromSeed(HMAC(secret, p)). Every node of a dev
// deployment passes the same secret (rccnode/rccclient -auth ds
// -auth-secret) and can then verify any party — replicas and clients alike —
// without out-of-band key distribution. Real deployments provision a
// KeyRing instead; the signatures and their verification cost are identical,
// which is what makes Fig. 7 right measurable on a live TCP cluster.
func NewDSDev(self uint32, secret []byte) Authenticator {
	return &dsAuth{
		self: self,
		priv: DevKey(secret, self),
		dev:  append([]byte(nil), secret...),
	}
}

// DevKey derives party's deterministic dev-mode ED25519 private key from the
// shared secret.
func DevKey(secret []byte, party uint32) ed25519.PrivateKey {
	h := hmac.New(sha256.New, secret)
	h.Write([]byte("rcc-dev-ed25519/"))
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], party)
	h.Write(b[:])
	return ed25519.NewKeyFromSeed(h.Sum(nil))
}

// GenerateKey generates an ED25519 keypair.
func GenerateKey() (ed25519.PublicKey, ed25519.PrivateKey, error) {
	return ed25519.GenerateKey(rand.Reader)
}

func (a *dsAuth) Scheme() Scheme { return SchemeDS }

func (a *dsAuth) Tag(_ uint32, payload []byte) []byte {
	return ed25519.Sign(a.priv, payload)
}

func (a *dsAuth) pub(from uint32) (ed25519.PublicKey, bool) {
	if pub, ok := a.pubs[from]; ok {
		return pub, true
	}
	if a.dev == nil {
		return nil, false
	}
	if pub, ok := a.devPubs.Load(from); ok {
		return pub.(ed25519.PublicKey), true
	}
	pub := DevKey(a.dev, from).Public().(ed25519.PublicKey)
	actual, _ := a.devPubs.LoadOrStore(from, pub)
	return actual.(ed25519.PublicKey), true
}

func (a *dsAuth) Verify(from uint32, payload, tag []byte) bool {
	pub, ok := a.pub(from)
	if !ok {
		return false
	}
	return ed25519.Verify(pub, payload, tag)
}

// VerifyBatch implements BatchAuthenticator: all payloads share the
// sender, so they share the public key and flow through one BatchVerifier —
// an all-valid batch costs one batch check, and forged items pay only the
// bisection to isolate them.
func (a *dsAuth) VerifyBatch(from uint32, payloads, tags [][]byte, ok []bool) {
	pub, found := a.pub(from)
	if !found {
		for i := range ok {
			ok[i] = false
		}
		return
	}
	var bv BatchVerifier
	for i := range payloads {
		bv.Add(pub, payloads[i], tags[i])
	}
	if bv.Verify() {
		for i := range ok {
			ok[i] = true
		}
		return
	}
	for i := range ok {
		ok[i] = true
	}
	for _, i := range bv.Failed() {
		ok[i] = false
	}
}
