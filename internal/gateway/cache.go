package gateway

import (
	"container/list"
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
// The cache is bounded in bytes (body + key accounting) with LRU
// eviction. Only 200 responses carrying the serve layer's idempotency
// marker are stored; streams are never cached.
type responseCache struct {
	mu     sync.Mutex
	max    int64
	bytes  int64
	lru    *list.List               // front = most recent
	byKey  map[string]*list.Element // designHash+"\x00"+inputHash
	hashes map[string]string        // design name → last observed design hash
	tel    *gatewayMetrics
}

type cacheEntry struct {
	key    string
	design string
	hash   string
	resp   *bufferedResponse
	size   int64
}

func newResponseCache(maxBytes int64, tel *gatewayMetrics) *responseCache {
	if maxBytes <= 0 {
		return nil
	}
	return &responseCache{
		max:    maxBytes,
		lru:    list.New(),
		byKey:  make(map[string]*list.Element),
		hashes: make(map[string]string),
		tel:    tel,
	}
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
// current hash is known and an entry for it exists. nil-safe: a nil cache
// always misses.
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
	el, ok := c.byKey[hash+"\x00"+input]
	if !ok {
		return nil
	}
	c.lru.MoveToFront(el)
	return el.Value.(*cacheEntry).resp
}

// store records a relayable idempotent response under the design hash the
// replica reported. When the hash differs from the design's previously
// observed one (a hot reload changed the program), the design's stale
// entries are purged — they can never be looked up again.
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
	key := hash + "\x00" + input
	if el, ok := c.byKey[key]; ok {
		c.lru.MoveToFront(el)
		return
	}
	el := c.lru.PushFront(&cacheEntry{key: key, design: design, hash: hash, resp: resp, size: size})
	c.byKey[key] = el
	c.bytes += size
	for c.bytes > c.max {
		back := c.lru.Back()
		if back == nil || back == el {
			break
		}
		c.removeLocked(back)
		c.tel.cacheEvictions.Inc()
	}
	c.tel.cacheBytes.Set(c.bytes)
	c.tel.cacheEntries.Set(int64(c.lru.Len()))
}

// purgeDesignLocked drops every entry the design stored under a hash
// other than keep. Caller holds c.mu.
func (c *responseCache) purgeDesignLocked(design, keep string) {
	for el := c.lru.Front(); el != nil; {
		next := el.Next()
		e := el.Value.(*cacheEntry)
		if e.design == design && e.hash != keep {
			c.removeLocked(el)
			c.tel.cacheInvalidations.Inc()
		}
		el = next
	}
	c.tel.cacheBytes.Set(c.bytes)
	c.tel.cacheEntries.Set(int64(c.lru.Len()))
}

func (c *responseCache) removeLocked(el *list.Element) {
	e := el.Value.(*cacheEntry)
	c.lru.Remove(el)
	delete(c.byKey, e.key)
	c.bytes -= e.size
}
