package conc

import (
	"errors"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// memoResult is one Get's outcome, or the panic it raised.
type memoResult struct {
	v     int
	st    Status
	err   error
	panic any
}

// goGet runs Get(key, build) on a goroutine and delivers its outcome.
func goGet(m *Memo[int], key string, build func() (int, error)) <-chan memoResult {
	out := make(chan memoResult, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				out <- memoResult{panic: r}
			}
		}()
		v, st, err := m.Get(key, build)
		out <- memoResult{v: v, st: st, err: err}
	}()
	return out
}

// waitForWaiters polls the goroutine dump until n goroutines are parked in
// Memo.Get itself, waiting for another caller's build. (A caller running
// a build is parked inside its build function, not in Get.)
func waitForWaiters(t *testing.T, n int) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		got := 0
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			header, frames, _ := strings.Cut(g, "\n")
			if strings.Contains(header, "[chan receive") && strings.HasPrefix(frames, "diskreuse/internal/conc.(*Memo[") {
				got++
			}
		}
		if got >= n {
			return
		}
	}
	t.Fatalf("fewer than %d callers waiting on a build after 10 s", n)
}

// buildWithWaiter starts a Get of key whose build blocks, waits until that
// build is in flight, starts a second Get of the key and waits until it
// blocks on the first build, and then lets the build run as build.
func buildWithWaiter(t *testing.T, m *Memo[int], key string, build func() (int, error)) (builder, waiter memoResult) {
	t.Helper()
	gate := make(chan struct{})
	first := goGet(m, key, func() (int, error) {
		<-gate
		return build()
	})
	for {
		m.mu.Lock()
		_, inflight := m.inflight[key]
		m.mu.Unlock()
		if inflight {
			break
		}
		time.Sleep(time.Millisecond)
	}
	second := goGet(m, key, func() (int, error) { return -1, errors.New("second build ran") })
	waitForWaiters(t, 1)
	close(gate)
	return <-first, <-second
}

func TestMemoStatuses(t *testing.T) {
	m := NewMemo[int](4, nil)
	if v, st, err := m.Get("a", func() (int, error) { return 1, nil }); v != 1 || st != Miss || err != nil {
		t.Fatalf("first Get = %d, %s, %v; want 1, miss, nil", v, st, err)
	}
	if v, st, err := m.Get("a", func() (int, error) { return 2, nil }); v != 1 || st != Hit || err != nil {
		t.Fatalf("second Get = %d, %s, %v; want 1, hit, nil", v, st, err)
	}
	builder, waiter := buildWithWaiter(t, m, "b", func() (int, error) { return 7, nil })
	if builder != (memoResult{v: 7, st: Miss}) {
		t.Errorf("builder got %+v, want 7, miss", builder)
	}
	if waiter != (memoResult{v: 7, st: Dedup}) {
		t.Errorf("waiter got %+v, want the builder's 7, dedup", waiter)
	}
}

func TestMemoFailedBuildRetried(t *testing.T) {
	m := NewMemo[int](4, nil)
	boom := errors.New("boom")
	if _, st, err := m.Get("k", func() (int, error) { return 0, boom }); err != boom || st != Miss {
		t.Fatalf("failing Get = %s, %v; want miss, boom", st, err)
	}
	if _, ok := m.Lookup("k"); ok || m.Len() != 0 {
		t.Fatal("a failed build was cached")
	}
	if v, st, err := m.Get("k", func() (int, error) { return 3, nil }); v != 3 || st != Miss || err != nil {
		t.Fatalf("retry Get = %d, %s, %v; want 3, miss, nil", v, st, err)
	}
}

func TestMemoLRUAndEvictionHook(t *testing.T) {
	var evicted []string
	m := NewMemo(2, func(key string, v int) { evicted = append(evicted, key) })
	for i, k := range []string{"a", "b"} {
		m.Get(k, func() (int, error) { return i, nil })
	}
	if v, ok := m.Lookup("a"); !ok || v != 0 { // promotes a over b
		t.Fatalf("Lookup(a) = %d, %v", v, ok)
	}
	m.Get("c", func() (int, error) { return 2, nil })
	if !slices.Equal(evicted, []string{"b"}) {
		t.Errorf("evicted %v, want [b] (the least recently used)", evicted)
	}
	if keys := m.Keys(); !slices.Equal(keys, []string{"c", "a"}) || m.Len() != 2 {
		t.Errorf("Keys = %v, Len = %d; want [c a], 2", keys, m.Len())
	}
	if _, ok := m.Lookup("b"); ok {
		t.Error("evicted key still cached")
	}
}

// TestMemoBuildsOnce runs 16 concurrent Gets of one key (run it under
// -race): the build runs once, one caller misses, and the other 15 wait
// for it and share its value.
func TestMemoBuildsOnce(t *testing.T) {
	m := NewMemo[int](4, nil)
	var builds atomic.Int32
	gate := make(chan struct{})
	const n = 16
	var wg sync.WaitGroup
	statuses := make([]Status, n)
	for i := range statuses {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, st, err := m.Get("k", func() (int, error) {
				builds.Add(1)
				<-gate
				return 42, nil
			})
			if v != 42 || err != nil {
				t.Errorf("Get = %d, %v", v, err)
			}
			statuses[i] = st
		}()
	}
	waitForWaiters(t, n-1)
	close(gate)
	wg.Wait()
	if b := builds.Load(); b != 1 {
		t.Fatalf("build ran %d times, want 1", b)
	}
	count := map[Status]int{}
	for _, st := range statuses {
		count[st]++
	}
	if count[Miss] != 1 || count[Dedup] != n-1 {
		t.Errorf("statuses %v, want 1 miss and %d dedups", statuses, n-1)
	}
}

// TestMemoPanickingBuild: the builder's own caller sees the panic, a
// caller waiting on the build is released with an error, and the key is
// not cached, so the next Get builds again.
func TestMemoPanickingBuild(t *testing.T) {
	m := NewMemo[int](4, nil)
	builder, waiter := buildWithWaiter(t, m, "k", func() (int, error) { panic("build failed") })
	if builder.panic != "build failed" {
		t.Errorf("builder got %+v, want the build's panic", builder)
	}
	if waiter.st != Dedup || !errors.Is(waiter.err, errBuildPanicked) {
		t.Errorf("waiter got %+v, want dedup with errBuildPanicked", waiter)
	}
	if _, ok := m.Lookup("k"); ok {
		t.Fatal("a panicking build was cached")
	}
	if v, st, err := m.Get("k", func() (int, error) { return 5, nil }); v != 5 || st != Miss || err != nil {
		t.Fatalf("Get after the panic = %d, %s, %v; want 5, miss, nil", v, st, err)
	}
}
