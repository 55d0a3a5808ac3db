// Package digestcache holds a sharded, bounded LRU of verified digests.
//
// The TCP transport keys it on the digest of one authenticated frame: the
// sender party, the exact record bytes, and the tag. A client request
// retransmitted alone repeats its frame byte for byte, and each arrival
// would otherwise pay a full signature (or MAC) verification. A hit proves this precise triple was
// verified before on this replica, so re-verifying is pure waste. A miss
// verifies as usual and, on success, inserts.
//
// Sharding keeps the transport's link readers from serializing on one
// lock; per-shard LRU eviction bounds memory no matter how many clients
// churn. Only successful verifications are inserted, so cache state can
// never turn a forgery into an accept — and because a hit and a miss return
// on the same link reader, hit/miss patterns cannot reorder per-link
// delivery.
package digestcache

import (
	"sync"
	"sync/atomic"
)

// DigestSize is the byte width of Key.Digest (SHA-256).
const DigestSize = 32

// DefaultEntries is the default total capacity.
const DefaultEntries = 1 << 16

const shardCount = 16 // power of two; low bits of the digest pick the shard

// Key identifies one verified item by a digest that binds everything the
// verification depended on (sender party, authenticated bytes, tag).
type Key [DigestSize]byte

// Stats is a point-in-time view of cache effectiveness.
type Stats struct {
	Hits   uint64
	Misses uint64
	Len    int // entries currently cached
}

// Cache is a sharded, bounded LRU set of verified digests. Safe for
// concurrent use. The zero value is not usable; call New.
type Cache struct {
	shards [shardCount]shard
	perCap int
	hits   atomic.Uint64
	misses atomic.Uint64
}

// New creates a cache holding up to entries keys (entries <= 0 picks
// DefaultEntries). Capacity splits evenly across shards.
func New(entries int) *Cache {
	if entries <= 0 {
		entries = DefaultEntries
	}
	per := entries / shardCount
	if per < 1 {
		per = 1
	}
	c := &Cache{perCap: per}
	for i := range c.shards {
		c.shards[i].m = make(map[Key]uint64, per)
	}
	return c
}

// shard is one LRU segment: a map from key to last-touch tick, with
// clock-style eviction of the oldest half when full. This trades exact LRU
// order for a lock held only briefly and no per-entry list allocations; the
// workload (hot keys re-verified within milliseconds, cold keys never
// again) doesn't reward exactness.
type shard struct {
	mu   sync.Mutex
	m    map[Key]uint64
	tick uint64
}

func (c *Cache) shard(k *Key) *shard {
	return &c.shards[int(k[0])&(shardCount-1)]
}

// Contains reports whether k was previously inserted, refreshing its
// recency and counting the lookup as a hit or miss.
func (c *Cache) Contains(k Key) bool {
	s := c.shard(&k)
	s.mu.Lock()
	_, ok := s.m[k]
	if ok {
		s.tick++
		s.m[k] = s.tick
	}
	s.mu.Unlock()
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return ok
}

// Add inserts k (refreshing it if present), evicting the least-recent half
// of its shard when the shard is full.
func (c *Cache) Add(k Key) {
	s := c.shard(&k)
	s.mu.Lock()
	s.tick++
	if _, ok := s.m[k]; !ok && len(s.m) >= c.perCap {
		s.evictLocked()
	}
	s.m[k] = s.tick
	s.mu.Unlock()
}

// evictLocked drops the less-recent half of the shard, amortizing eviction
// cost across many inserts. Ticks are unique per operation, so at most
// len/2 distinct ticks fit in (tick-len/2, tick] — the cut always frees at
// least half the shard.
func (s *shard) evictLocked() {
	cut := s.tick - uint64(len(s.m))/2
	for k, t := range s.m {
		if t <= cut {
			delete(s.m, k)
		}
	}
}

// Stats returns cumulative hit/miss counters and the current entry count.
func (c *Cache) Stats() Stats {
	st := Stats{Hits: c.hits.Load(), Misses: c.misses.Load()}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		st.Len += len(s.m)
		s.mu.Unlock()
	}
	return st
}
