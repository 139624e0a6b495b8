package gateway

import (
	"crypto/sha256"
	"encoding/hex"
	"sync"
)

// responseCache is the gateway-side cache for idempotent /v1/match
// responses. A match is a pure function of the compiled design and the
// input bytes, so entries are keyed on design hash + input hash: the
// design hash comes from the serve layer's X-Rapid-Design-Hash response
// header (the gateway learns each design's current hash from the
// responses that flow through it), which makes a hot-reloaded design an
// automatic cache miss — the new hash keys a different entry, and the
// stale entries are purged. Repeated probes and hot queries are answered
// without touching a replica, consuming no replica queue slot and no
// tenant quota.
//
// The cache is bounded in bytes (body + key accounting) and evicts as a
// segmented LRU: a stored entry enters the probationary segment, a hit
// moves it to the protected segment (at most ¾ of the bound; its overflow
// is demoted back to probation), and eviction takes probation's least
// recent entry first. A burst of one-off misses thus cycles through
// probation and cannot flush the entries being hit. Only 200 responses
// carrying the serve layer's idempotency marker are stored; streams are
// never cached.
type responseCache struct {
	mu        sync.Mutex
	max       int64
	probation segment
	protected segment
	byKey     map[cacheKey]*cacheEntry
	hashes    map[string]string // design name → last observed design hash
	tel       *gatewayMetrics
}

// cacheKey is an entry's key: the design hash and the input hash.
type cacheKey struct{ hash, input string }

type cacheEntry struct {
	key        cacheKey
	design     string
	resp       *bufferedResponse
	size       int64
	prev, next *cacheEntry
	seg        *segment
}

// segment is one LRU list, its root a sentinel: root.next is the most
// recent entry, root.prev the least.
type segment struct {
	root  cacheEntry
	bytes int64
	n     int
}

func (s *segment) init() { s.root.next, s.root.prev = &s.root, &s.root }

func (s *segment) pushFront(e *cacheEntry) {
	e.prev, e.next, e.seg = &s.root, s.root.next, s
	s.root.next.prev = e
	s.root.next = e
	s.bytes += e.size
	s.n++
}

func (s *segment) remove(e *cacheEntry) {
	e.prev.next, e.next.prev = e.next, e.prev
	e.prev, e.next, e.seg = nil, nil, nil
	s.bytes -= e.size
	s.n--
}

// back returns the least recent entry, nil when the segment is empty.
func (s *segment) back() *cacheEntry {
	if s.root.prev == &s.root {
		return nil
	}
	return s.root.prev
}

func newResponseCache(maxBytes int64, tel *gatewayMetrics) *responseCache {
	if maxBytes <= 0 {
		return nil
	}
	c := &responseCache{
		max:    maxBytes,
		byKey:  make(map[cacheKey]*cacheEntry),
		hashes: make(map[string]string),
		tel:    tel,
	}
	c.probation.init()
	c.protected.init()
	return c
}

// inputHash fingerprints a request body for cache keying. The body's form
// leads the key, so a raw input whose bytes spell a JSON request never
// answers from (or for) that JSON request's entry.
func inputHash(raw bool, body []byte) string {
	sum := sha256.Sum256(body)
	var key [1 + 2*16]byte
	key[0] = 'j'
	if raw {
		key[0] = 'r'
	}
	hex.Encode(key[1:], sum[:16])
	return string(key[:])
}

// lookup returns the cached response for (design, input), if the design's
// current hash is known and an entry for it exists; a hit is promoted to
// the protected segment. nil-safe: a nil cache always misses.
func (c *responseCache) lookup(design, input string) *bufferedResponse {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	hash, ok := c.hashes[design]
	if !ok {
		return nil
	}
	e, ok := c.byKey[cacheKey{hash, input}]
	if !ok {
		return nil
	}
	e.seg.remove(e)
	c.protected.pushFront(e)
	for c.protected.bytes > c.max*3/4 {
		old := c.protected.back()
		if old == e {
			break
		}
		c.protected.remove(old)
		c.probation.pushFront(old)
	}
	return e.resp
}

// store records a relayable idempotent response under the design hash the
// replica reported, in the probationary segment. When the hash differs
// from the design's previously observed one (a hot reload changed the
// program), the design's stale entries are purged — they can never be
// looked up again.
func (c *responseCache) store(design, hash, input string, resp *bufferedResponse) {
	if c == nil || hash == "" {
		return
	}
	size := int64(len(resp.body)) + int64(len(hash)+len(input)) + 256
	if size > c.max {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if prev, ok := c.hashes[design]; ok && prev != hash {
		c.purgeDesignLocked(design, hash)
	}
	c.hashes[design] = hash
	key := cacheKey{hash, input}
	if e, ok := c.byKey[key]; ok {
		seg := e.seg
		seg.remove(e)
		seg.pushFront(e)
		return
	}
	e := &cacheEntry{key: key, design: design, resp: resp, size: size}
	c.probation.pushFront(e)
	c.byKey[key] = e
	for c.probation.bytes+c.protected.bytes > c.max {
		victim := c.probation.back()
		if victim == e || victim == nil {
			victim = c.protected.back()
		}
		c.removeLocked(victim)
		c.tel.cacheEvictions.Inc()
	}
	c.publishLocked()
}

// purgeDesignLocked drops every entry the design stored under a hash
// other than keep. Caller holds c.mu.
func (c *responseCache) purgeDesignLocked(design, keep string) {
	for _, s := range []*segment{&c.probation, &c.protected} {
		for e := s.root.next; e != &s.root; {
			next := e.next
			if e.design == design && e.key.hash != keep {
				c.removeLocked(e)
				c.tel.cacheInvalidations.Inc()
			}
			e = next
		}
	}
	c.publishLocked()
}

func (c *responseCache) removeLocked(e *cacheEntry) {
	e.seg.remove(e)
	delete(c.byKey, e.key)
}

func (c *responseCache) publishLocked() {
	c.tel.cacheBytes.Set(c.probation.bytes + c.protected.bytes)
	c.tel.cacheEntries.Set(int64(c.probation.n + c.protected.n))
}
