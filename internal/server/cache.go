// Package server is the dpcd service: a stdlib-only net/http JSON API
// that accepts DRL programs and simulation configs, runs the existing
// compile → restructure → trace → simulate pipeline, and returns or
// streams the results. Its core is a content-addressed artifact cache:
// requests are keyed by a hash of everything that determines the prepared
// artifacts (program bytes, processor count, engine, trace-generation
// options, disk model), and the expensive immutable exp.Artifacts —
// parsed AST, compiled kernels, restructured schedules, prepared traces —
// are memoized in a conc.Memo — a bounded LRU with singleflight-style
// in-flight deduplication — so N concurrent identical submissions compile
// once and every replay shares the one cached value read-only.
package server

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"

	"diskreuse/internal/conc"
	"diskreuse/internal/exp"
	"diskreuse/internal/metrics"
)

// CacheStatus says how a request's artifacts were obtained; it is
// returned to clients in the X-DPCD-Cache response header.
type CacheStatus = conc.Status

const (
	// StatusMiss: this request ran the pipeline.
	StatusMiss = conc.Miss
	// StatusHit: the artifacts were already cached.
	StatusHit = conc.Hit
	// StatusDedup: another in-flight request was already building the
	// same artifacts; this one waited for it instead of compiling again.
	StatusDedup = conc.Dedup
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

// Cache is the bounded content-addressed artifact cache: a conc.Memo of
// immutable exp.Artifacts that publishes its hit/miss/dedup/eviction
// counters and entry-count gauge. All methods are safe for concurrent
// use; a hit hands back a value that any number of requests may replay
// concurrently.
type Cache struct {
	memo *conc.Memo[*exp.Artifacts]

	hits   *metrics.Counter
	misses *metrics.Counter
	dedups *metrics.Counter
	size   *metrics.Gauge
}

// NewCache returns a cache bounded to capacity entries. The registry
// (which may be nil) receives the cache's hit/miss/dedup/eviction
// counters and the live entry-count gauge.
func NewCache(capacity int, reg *metrics.Registry) *Cache {
	evictions := reg.Counter("dpcd_cache_evictions_total", "artifact cache LRU evictions")
	return &Cache{
		memo:   conc.NewMemo(capacity, func(string, *exp.Artifacts) { evictions.Inc() }),
		hits:   reg.Counter("dpcd_cache_hits_total", "artifact cache hits"),
		misses: reg.Counter("dpcd_cache_misses_total", "artifact cache misses (pipeline executions)"),
		dedups: reg.Counter("dpcd_cache_dedup_total", "requests coalesced onto an in-flight build"),
		size:   reg.Gauge("dpcd_cache_entries", "artifacts currently cached"),
	}
}

// Get returns the artifacts for key, building them at most once across
// all concurrent callers (conc.Memo.Get): a cached key is a hit; a key
// with a build in flight waits for that build (dedup); otherwise this
// caller runs build (miss). Failed and panicking builds are not cached,
// and the next Get retries.
func (c *Cache) Get(key string, build func() (*exp.Artifacts, error)) (*exp.Artifacts, CacheStatus, error) {
	art, st, err := c.memo.Get(key, build)
	switch st {
	case StatusHit:
		c.hits.Inc()
	case StatusDedup:
		c.dedups.Inc()
	default:
		c.misses.Inc()
		c.size.Set(float64(c.memo.Len()))
	}
	return art, st, err
}

// Lookup returns the cached artifacts for key without building, promoting
// the entry on hit. It backs GET /v1/artifacts/{hash}.
func (c *Cache) Lookup(key string) (*exp.Artifacts, bool) { return c.memo.Lookup(key) }

// Len returns the number of cached entries.
func (c *Cache) Len() int { return c.memo.Len() }

// Keys returns the cached keys from most to least recently used.
func (c *Cache) Keys() []string { return c.memo.Keys() }
