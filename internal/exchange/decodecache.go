package exchange

import (
	"sync"

	"mlless/internal/sparse"
)

// decodeCache decodes each published update once per job and lets every
// puller merge from the shared decoded form. Under the parameter server
// each of P workers applies the P−1 peer updates of a step, and under
// the collectives P−1 workers apply each reduced chunk or the root
// total; parsing the wire bytes once per puller made the host cost of
// modelling the exchange O(P²) decodes per step. The simulated cost is
// untouched: pullers still read (and are charged for) every byte, and
// the engine still charges apply compute per applied coordinate.
//
// Entries are keyed by the medium key and validated on every hit
// against the identity of the view they were decoded from (address of
// its first byte and its length). That is sound because KV and
// object-store views are immutable — a write replaces a key's buffer
// wholesale, never mutates it — and because an entry keeps its view
// reachable, so the buffer cannot be freed and reused at the same
// address for different bytes while the entry exists. A re-published
// key therefore misses and decodes afresh.
//
// The cache never pre-sums updates: each puller still applies every
// update separately, in its own order, so replicas are bit-identical to
// merging from the bytes.
//
// Entries are dropped when their step expires (Exchange.Expire), and
// Teardown drops whatever is left. Both run between driver phases, when
// no merge is in flight, so expired entries go straight to a free list
// and the steady-state pull decodes into recycled buffers without
// allocating. A stale entry is re-decoded in place: keys are published
// in a different driver phase from the one that pulls them, so no
// merge from the stale form can be in flight. The mutex serializes
// lookups and decodes across the parallel driver's workers; merges run
// outside it.
type decodeCache struct {
	mu      sync.Mutex
	entries map[string]*decodedEntry
	free    []*decodedEntry
}

// decodedEntry is one cached update and the view it was decoded from.
type decodedEntry struct {
	view []byte
	u    sparse.Decoded
}

func newDecodeCache() *decodeCache {
	return &decodeCache{entries: make(map[string]*decodedEntry)}
}

// get returns the decoded form of view, the current value read under
// key. The result is shared and read-only; it stays valid until key's
// step expires.
func (c *decodeCache) get(key string, view []byte) (*sparse.Decoded, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	// A cached view passed DecodeFrom, so it is never empty.
	if ok && len(e.view) == len(view) && &e.view[0] == &view[0] {
		return &e.u, nil
	}
	if !ok {
		e = c.alloc()
		c.entries[key] = e
	}
	if err := e.u.DecodeFrom(view); err != nil {
		delete(c.entries, key)
		c.release(e)
		return nil, err
	}
	e.view = view
	return &e.u, nil
}

func (c *decodeCache) alloc() *decodedEntry {
	if n := len(c.free); n > 0 {
		e := c.free[n-1]
		c.free = c.free[:n-1]
		return e
	}
	return new(decodedEntry)
}

// drop releases key's entry, if any. Call it only while no merge from
// the cache is in flight.
func (c *decodeCache) drop(key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok {
		delete(c.entries, key)
		c.release(e)
	}
}

// clear drops every entry and the recycled buffers with them: Teardown
// ends the job's use of the cache.
func (c *decodeCache) clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	clear(c.entries)
	c.free = nil
}

func (c *decodeCache) release(e *decodedEntry) {
	e.view = nil
	c.free = append(c.free, e)
}

// len reports how many updates the cache holds.
func (c *decodeCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
