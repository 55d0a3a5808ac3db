package transport

// Inbound frame verification.
//
// A frame carries one tag over its record bytes (wire v5), so checking it is
// one Verify call. Each link's readLoop makes that call itself, before it
// decodes a single record: the links' readers already run in parallel, and a
// link's own frames are delivered in the order they arrived because one
// goroutine reads, checks, decodes and delivers them.

import (
	"crypto/sha256"
	"encoding/binary"

	"repro/internal/crypto/digestcache"
)

// verifyFrame checks one frame's tag against its record bytes. Frames from
// client links consult the digest cache, when one is wired: a retransmitted
// request that travels alone repeats its frame byte for byte, while replica
// frames coalesce votes that never repeat.
func (t *TCP) verifyFrame(party uint32, fromClient bool, records, tag []byte) bool {
	auth := t.cfg.Auth
	cache := t.cfg.DigestCache
	if cache == nil || !fromClient {
		return auth.Verify(party, records, tag)
	}
	key := frameCacheKey(party, records, tag)
	if cache.Contains(key) {
		return true // this exact triple verified before
	}
	ok := auth.Verify(party, records, tag)
	if ok {
		cache.Add(key)
	}
	return ok
}

// frameCacheKey derives the digest-cache key of one frame. The digest binds
// the sender party, the exact record bytes, and the tag (length-prefixed so
// boundaries cannot shift), so a hit proves this precise triple passed
// verification before.
func frameCacheKey(party uint32, records, tag []byte) digestcache.Key {
	h := sha256.New()
	var b [8]byte
	binary.BigEndian.PutUint32(b[:4], party)
	binary.BigEndian.PutUint32(b[4:], uint32(len(records)))
	h.Write(b[:])
	h.Write(records)
	h.Write(tag)
	var k digestcache.Key
	h.Sum(k[:0])
	return k
}
