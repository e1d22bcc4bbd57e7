// Package server is the dpcd service: a stdlib-only net/http JSON API
// that accepts DRL programs and simulation configs, runs the existing
// compile → restructure → trace → simulate pipeline, and returns or
// streams the results. Its core is a content-addressed artifact cache:
// requests are keyed by a hash of everything that determines the prepared
// artifacts (program bytes, processor count, engine, trace-generation
// options, disk model), and the expensive immutable exp.Artifacts —
// parsed AST, compiled kernels, restructured schedules, prepared traces —
// are memoized in a bounded LRU with singleflight-style in-flight
// deduplication, so N concurrent identical submissions compile once and
// every replay shares the one cached value read-only.
package server

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"sync"

	"diskreuse/internal/exp"
	"diskreuse/internal/metrics"
)

// CacheStatus says how a request's artifacts were obtained; it is
// returned to clients in the X-DPCD-Cache response header.
type CacheStatus string

const (
	// StatusMiss: this request ran the pipeline.
	StatusMiss CacheStatus = "miss"
	// StatusHit: the artifacts were already cached.
	StatusHit CacheStatus = "hit"
	// StatusDedup: another in-flight request was already building the
	// same artifacts; this one waited for it instead of compiling again.
	StatusDedup CacheStatus = "dedup"
)

// ArtifactKey content-addresses a compilation: it hashes exactly the
// inputs PrepareApp's output depends on — the program bytes, the
// processor count (selects the execution plans), the front-end engine,
// the compute time per iteration, and the disk model (its full-speed
// service time seeds the generated arrivals). Replay-only parameters (power-management thresholds, RAID
// width, streaming, proactive hints) are deliberately excluded: they
// do not change the artifacts, so requests differing only in policy
// share one cache entry.
func ArtifactKey(program string, procs int, engine string, computePerIter float64, model string) string {
	h := sha256.New()
	fmt.Fprintf(h, "dpcd-artifact-v2\nprocs=%d\nengine=%s\ncompute_per_iter=%016x\nmodel=%s\nprogram=%d\n",
		procs, engine, math.Float64bits(computePerIter), model, len(program))
	h.Write([]byte(program))
	return hex.EncodeToString(h.Sum(nil))
}

// call is one in-flight artifact build; waiters block on done.
type call struct {
	done chan struct{}
	art  *exp.Artifacts
	err  error
}

// Cache is the bounded content-addressed artifact cache. All methods are
// safe for concurrent use. Entries are immutable exp.Artifacts, so a hit
// hands back a value that any number of requests may replay concurrently.
type Cache struct {
	capacity int

	mu       sync.Mutex // held only for map/list ops, never across a build
	ll       *list.List // front = most recently used
	entries  map[string]*list.Element
	inflight map[string]*call

	hits      *metrics.Counter
	misses    *metrics.Counter
	dedups    *metrics.Counter
	evictions *metrics.Counter
	size      *metrics.Gauge
}

type entry struct {
	key string
	art *exp.Artifacts
}

// NewCache returns a cache bounded to capacity entries. The registry
// (which may be nil) receives the cache's hit/miss/dedup/eviction
// counters and the live entry-count gauge.
func NewCache(capacity int, reg *metrics.Registry) *Cache {
	if capacity < 1 {
		capacity = 1
	}
	c := &Cache{
		capacity:  capacity,
		ll:        list.New(),
		entries:   make(map[string]*list.Element),
		inflight:  make(map[string]*call),
		hits:      reg.Counter("dpcd_cache_hits_total", "artifact cache hits"),
		misses:    reg.Counter("dpcd_cache_misses_total", "artifact cache misses (pipeline executions)"),
		dedups:    reg.Counter("dpcd_cache_dedup_total", "requests coalesced onto an in-flight build"),
		evictions: reg.Counter("dpcd_cache_evictions_total", "artifact cache LRU evictions"),
		size:      reg.Gauge("dpcd_cache_entries", "artifacts currently cached"),
	}
	return c
}

// Get returns the artifacts for key, building them at most once across
// all concurrent callers: a cached key is a hit; a key with a build in
// flight waits for that build (dedup); otherwise this caller runs build
// (miss) and everyone arriving meanwhile waits on it. Failed builds are
// not cached — the error is shared with the coalesced waiters of that
// one attempt and the next Get retries.
func (c *Cache) Get(key string, build func() (*exp.Artifacts, error)) (*exp.Artifacts, CacheStatus, error) {
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.ll.MoveToFront(el)
		art := el.Value.(*entry).art
		c.mu.Unlock()
		c.hits.Inc()
		return art, StatusHit, nil
	}
	if cl, ok := c.inflight[key]; ok {
		c.mu.Unlock()
		c.dedups.Inc()
		<-cl.done
		return cl.art, StatusDedup, cl.err
	}
	cl := &call{done: make(chan struct{})}
	c.inflight[key] = cl
	c.mu.Unlock()
	c.misses.Inc()

	cl.art, cl.err = build()

	c.mu.Lock()
	delete(c.inflight, key)
	if cl.err == nil {
		c.insertLocked(key, cl.art)
	}
	c.mu.Unlock()
	close(cl.done)
	return cl.art, StatusMiss, cl.err
}

// insertLocked adds a built entry, evicting from the LRU tail past
// capacity. Callers hold the lock.
func (c *Cache) insertLocked(key string, art *exp.Artifacts) {
	if el, ok := c.entries[key]; ok {
		// A concurrent build of the same key already landed (possible if
		// an entry was evicted and rebuilt while this build ran); keep
		// the existing entry authoritative.
		c.ll.MoveToFront(el)
		return
	}
	c.entries[key] = c.ll.PushFront(&entry{key: key, art: art})
	for c.ll.Len() > c.capacity {
		tail := c.ll.Back()
		c.ll.Remove(tail)
		delete(c.entries, tail.Value.(*entry).key)
		c.evictions.Inc()
	}
	c.size.Set(float64(c.ll.Len()))
}

// Lookup returns the cached artifacts for key without building, promoting
// the entry on hit. It backs GET /v1/artifacts/{hash}.
func (c *Cache) Lookup(key string) (*exp.Artifacts, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*entry).art, true
}

// Len returns the number of cached entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Keys returns the cached keys from most to least recently used.
func (c *Cache) Keys() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	keys := make([]string, 0, c.ll.Len())
	for el := c.ll.Front(); el != nil; el = el.Next() {
		keys = append(keys, el.Value.(*entry).key)
	}
	return keys
}
