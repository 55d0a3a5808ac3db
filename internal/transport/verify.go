package transport

// Inbound frame verification.
//
// A frame carries one tag over its records' digest (wire v11), so checking
// it is one hash of the records and one Verify call. Each link's readLoop
// makes that call itself, before it decodes a single record: the links'
// readers already run in parallel, and a link's own frames are delivered in
// the order they arrived because one goroutine reads, checks, decodes and
// delivers them.

import (
	"crypto/sha256"
	"encoding/binary"

	"repro/internal/crypto/digestcache"
)

// verifyFrame checks one frame's tag against the digest of its record
// bytes. Frames from client links consult the digest cache, when one is
// wired: a retransmitted request that travels alone repeats its frame byte
// for byte, while replica frames coalesce votes that never repeat.
func (t *TCP) verifyFrame(party uint32, fromClient bool, records, tag []byte) bool {
	auth := t.cfg.Auth
	cache := t.cfg.DigestCache
	d := frameDigest(records)
	if cache == nil || !fromClient {
		return auth.Verify(party, d[:], tag)
	}
	key := frameCacheKey(party, d, tag)
	if cache.Contains(key) {
		return true // this exact triple verified before
	}
	ok := auth.Verify(party, d[:], tag)
	if ok {
		cache.Add(key)
	}
	return ok
}

// frameCacheKey derives the digest-cache key of one frame from the sender
// party, the frame digest d (which already binds the exact record bytes)
// and the tag, so a hit proves this precise triple passed verification
// before without hashing the records a second time.
func frameCacheKey(party uint32, d [sha256.Size]byte, tag []byte) digestcache.Key {
	var b [4 + sha256.Size + maxTagLen]byte
	binary.BigEndian.PutUint32(b[:4], party)
	copy(b[4:], d[:])
	n := 4 + sha256.Size + copy(b[4+sha256.Size:], tag)
	return sha256.Sum256(b[:n])
}
