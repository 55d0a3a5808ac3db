package transport

// Inbound DS frame verification.
//
// A DS frame carries one ED25519 signature over its records' digest (wire
// v12), so checking it is one hash of the records and one Verify call. MAC
// frames never come here: checkFrame opens their stream tag itself. Each
// link's readLoop checks its frames before it decodes a single record: the
// links' readers already run in parallel, and a link's own frames are
// delivered in the order they arrived because one goroutine reads, checks,
// decodes and delivers them.

import (
	"crypto/sha256"
	"encoding/binary"

	"repro/internal/crypto/digestcache"
)

// verifyFrame checks one DS frame's signature against the digest of its
// record bytes. Client links consult the digest cache, when one is wired: a
// retransmitted request that travels alone repeats its frame byte for byte,
// while replica frames coalesce votes that never repeat.
func (la *linkAuth) verifyFrame(records, tag []byte) bool {
	frameDigest(&la.d, records)
	if la.cache == nil {
		return la.auth.Verify(la.party, la.d[:], tag)
	}
	key := frameCacheKey(la.party, &la.d, tag)
	if la.cache.Contains(key) {
		return true // this exact triple verified before
	}
	ok := la.auth.Verify(la.party, la.d[:], tag)
	if ok {
		la.cache.Add(key)
	}
	return ok
}

// frameCacheKey derives the digest-cache key of one frame from the sender
// party, the frame digest d (which already binds the exact record bytes)
// and the tag, so a hit proves this precise triple passed verification
// before without hashing the records a second time.
func frameCacheKey(party uint32, d *[sha256.Size]byte, tag []byte) digestcache.Key {
	var b [4 + sha256.Size + maxTagLen]byte
	binary.BigEndian.PutUint32(b[:4], party)
	copy(b[4:], d[:])
	n := 4 + sha256.Size + copy(b[4+sha256.Size:], tag)
	return sha256.Sum256(b[:n])
}
