package server

import (
	"bytes"
	"fmt"
	"net/http"
	"sync"
	"testing"

	"diskreuse/internal/exp"
	"diskreuse/internal/metrics"
)

// TestConcurrentIdenticalSubmissions is the singleflight contract under
// load: M goroutines POST the same simulate request simultaneously;
// exactly one pipeline execution happens (compile counter), every
// response is 200 with a bit-identical body, and the cache statuses
// partition into one miss plus hits/dedups.
func TestConcurrentIdenticalSubmissions(t *testing.T) {
	s := newTestServer(Config{})
	body := mustRequestJSON(t, SimulateRequest{
		CompileRequest: CompileRequest{Program: testProgram, Procs: 2},
		Versions:       []string{"Base", "T-TPM-m"},
	})
	const m = 16
	bodies := make([][]byte, m)
	statuses := make([]string, m)
	var wg sync.WaitGroup
	for i := 0; i < m; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rec := post(s, "/v1/simulate", body)
			if rec.Code != http.StatusOK {
				t.Errorf("goroutine %d: status %d: %s", i, rec.Code, rec.Body)
				return
			}
			bodies[i] = rec.Body.Bytes()
			statuses[i] = rec.Header().Get("X-DPCD-Cache")
		}(i)
	}
	wg.Wait()

	if v, _ := s.Metrics().Value("dpcd_compiles_total"); v != 1 {
		t.Errorf("dpcd_compiles_total = %v, want exactly 1 for %d identical submissions", v, m)
	}
	var misses, dedups, hits int
	for i := range statuses {
		switch CacheStatus(statuses[i]) {
		case StatusMiss:
			misses++
		case StatusDedup:
			dedups++
		case StatusHit:
			hits++
		default:
			t.Errorf("goroutine %d: unexpected cache status %q", i, statuses[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Errorf("goroutine %d: response body differs from goroutine 0", i)
		}
	}
	if misses != 1 || misses+dedups+hits != m {
		t.Errorf("status partition: %d miss, %d dedup, %d hit; want 1 miss and %d total", misses, dedups, hits, m)
	}
	if v, _ := s.Metrics().Value("dpcd_cache_misses_total"); v != 1 {
		t.Errorf("dpcd_cache_misses_total = %v, want 1", v)
	}
	if v, _ := s.Metrics().Value("dpcd_cache_dedup_total"); v != float64(dedups) {
		t.Errorf("dpcd_cache_dedup_total = %v, want %d", v, dedups)
	}
}

// TestCacheSingleflight drives the Cache directly: concurrent Gets of one
// key run the build function exactly once, and a failed build is shared
// with its waiters but never cached.
func TestCacheSingleflight(t *testing.T) {
	reg := metrics.NewRegistry()
	c := NewCache(4, reg)
	gate := make(chan struct{})
	var builds int
	art := &exp.Artifacts{}
	build := func() (*exp.Artifacts, error) {
		builds++ // safe: singleflight means one builder
		<-gate
		return art, nil
	}
	const m = 8
	var wg sync.WaitGroup
	statuses := make([]CacheStatus, m)
	for i := 0; i < m; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got, st, err := c.Get("k", build)
			if err != nil || got != art {
				t.Errorf("Get: %v, %v", got, err)
			}
			statuses[i] = st
		}(i)
	}
	// Open the gate once at least the first builder is registered; any
	// goroutine still arriving afterwards sees a plain hit, which the
	// partition check below allows.
	for c.Len() == 0 {
		select {
		case gate <- struct{}{}:
		default:
		}
	}
	close(gate)
	wg.Wait()
	if builds != 1 {
		t.Fatalf("build ran %d times, want 1", builds)
	}
	var misses int
	for _, st := range statuses {
		if st == StatusMiss {
			misses++
		}
	}
	if misses != 1 {
		t.Errorf("%d misses, want 1 (statuses %v)", misses, statuses)
	}

	// Failed builds propagate but are not cached.
	wantErr := fmt.Errorf("boom")
	_, _, err := c.Get("bad", func() (*exp.Artifacts, error) { return nil, wantErr })
	if err != wantErr {
		t.Fatalf("error Get = %v, want %v", err, wantErr)
	}
	if _, ok := c.Lookup("bad"); ok {
		t.Error("failed build was cached")
	}
	// The next Get retries the build.
	got, st, err := c.Get("bad", func() (*exp.Artifacts, error) { return art, nil })
	if err != nil || got != art || st != StatusMiss {
		t.Errorf("retry Get = %v, %v, %v; want artifacts, miss, nil", got, st, err)
	}
}

// TestLRUEvictionAccounting churns a capacity-2 server cache with three
// distinct programs and checks the eviction order, the metrics, and that
// an evicted program recompiles.
func TestLRUEvictionAccounting(t *testing.T) {
	s := newTestServer(Config{CacheEntries: 2})
	prog := func(n int) string {
		return fmt.Sprintf(`array A[%d] elem 4096 stripe(unit=32K, factor=8, start=0)
nest N { for i = 0 to %d { A[i] = A[i]; } }
`, 8*(n+1), 8*(n+1)-1)
	}
	postProg := func(n int) *CompileRequest {
		cr := &CompileRequest{Program: prog(n)}
		rec := post(s, "/v1/compile", mustRequestJSON(t, cr))
		if rec.Code != http.StatusOK {
			t.Fatalf("compile %d: %d %s", n, rec.Code, rec.Body)
		}
		return cr
	}
	keyOf := func(n int) string {
		return ArtifactKey(prog(n), 1, "compiled", 0, "IBM Ultrastar 36Z15")
	}

	postProg(0) // cache: [0]
	postProg(1) // cache: [1 0]
	postProg(0) // hit, promotes: [0 1]
	postProg(2) // evicts 1:     [2 0]

	if got, want := s.Cache().Len(), 2; got != want {
		t.Fatalf("cache len = %d, want %d", got, want)
	}
	keys := s.Cache().Keys()
	if len(keys) != 2 || keys[0] != keyOf(2) || keys[1] != keyOf(0) {
		t.Errorf("MRU order = %v, want [key(2) key(0)]", keys)
	}
	if v, _ := s.Metrics().Value("dpcd_cache_evictions_total"); v != 1 {
		t.Errorf("evictions = %v, want 1", v)
	}
	if v, _ := s.Metrics().Value("dpcd_cache_entries"); v != 2 {
		t.Errorf("entries gauge = %v, want 2", v)
	}
	if v, _ := s.Metrics().Value("dpcd_compiles_total"); v != 3 {
		t.Errorf("compiles = %v, want 3", v)
	}

	// Program 1 was evicted: resubmitting recompiles (miss), evicting 0.
	rec := post(s, "/v1/compile", mustRequestJSON(t, &CompileRequest{Program: prog(1)}))
	if got := rec.Header().Get("X-DPCD-Cache"); got != string(StatusMiss) {
		t.Errorf("evicted resubmission X-DPCD-Cache = %q, want miss", got)
	}
	if v, _ := s.Metrics().Value("dpcd_compiles_total"); v != 4 {
		t.Errorf("compiles after resubmission = %v, want 4", v)
	}
	if v, _ := s.Metrics().Value("dpcd_cache_evictions_total"); v != 2 {
		t.Errorf("evictions after resubmission = %v, want 2", v)
	}
	if got := get(s, "/v1/artifacts/"+keyOf(0)); got.Code != http.StatusNotFound {
		t.Errorf("evicted artifact lookup = %d, want 404", got.Code)
	}
}
