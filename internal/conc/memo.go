package conc

import (
	"container/list"
	"errors"
	"sync"
)

// Status says how Memo.Get obtained its value.
type Status string

const (
	Miss  Status = "miss"  // this caller ran the build
	Hit   Status = "hit"   // the value was already cached
	Dedup Status = "dedup" // this caller waited on another caller's build of the key
)

// errBuildPanicked is what callers coalesced onto a build receive when
// that build panics; the panic itself reaches the caller that ran it.
var errBuildPanicked = errors.New("conc: memo build panicked")

// Memo is a bounded LRU cache whose builds run at most once per key across
// concurrent callers: the repository's one build-once cache, behind dpcd's
// artifact cache and the layout engine's score and schedule memos. All
// methods are safe for concurrent use. The lock is held only for map and
// list operations, never across a build.
type Memo[V any] struct {
	capacity int
	onEvict  func(key string, v V)

	mu       sync.Mutex
	ll       *list.List // front = most recently used; values are *memoEntry[V]
	entries  map[string]*list.Element
	inflight map[string]*memoCall[V]
}

type memoEntry[V any] struct {
	key string
	val V
}

// memoCall is one in-flight build; waiters block on done.
type memoCall[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// NewMemo returns a memo bounded to capacity entries (at least 1).
// onEvict, which may be nil, is called with each entry the LRU drops, by
// the Get whose insert dropped it, after the memo's lock is released.
func NewMemo[V any](capacity int, onEvict func(key string, v V)) *Memo[V] {
	return &Memo[V]{
		capacity: max(capacity, 1),
		onEvict:  onEvict,
		ll:       list.New(),
		entries:  make(map[string]*list.Element),
		inflight: make(map[string]*memoCall[V]),
	}
}

// Get returns the value for key, building it at most once across all
// concurrent callers: a cached key is a Hit; a key with a build in flight
// waits for that build (Dedup); otherwise this caller runs build (Miss)
// and everyone arriving meanwhile waits on it. A failed build is not
// cached — its error goes to the waiters of that one attempt and the next
// Get builds again. A build that panics is not cached either: its waiters
// are released with an error and the panic goes on up this caller's stack.
func (m *Memo[V]) Get(key string, build func() (V, error)) (V, Status, error) {
	m.mu.Lock()
	if el, ok := m.entries[key]; ok {
		m.ll.MoveToFront(el)
		v := el.Value.(*memoEntry[V]).val
		m.mu.Unlock()
		return v, Hit, nil
	}
	if c, ok := m.inflight[key]; ok {
		m.mu.Unlock()
		<-c.done
		return c.val, Dedup, c.err
	}
	c := &memoCall[V]{done: make(chan struct{}), err: errBuildPanicked}
	m.inflight[key] = c
	m.mu.Unlock()

	// Deferred so a panicking build still leaves the in-flight table and
	// wakes its waiters; c.err then keeps errBuildPanicked. A key is built
	// only while it is neither cached nor in flight, so the insert never
	// finds it present, and it passes capacity by at most one entry.
	defer func() {
		var evicted *memoEntry[V]
		m.mu.Lock()
		delete(m.inflight, key)
		if c.err == nil {
			m.entries[key] = m.ll.PushFront(&memoEntry[V]{key: key, val: c.val})
			if m.ll.Len() > m.capacity {
				evicted = m.ll.Remove(m.ll.Back()).(*memoEntry[V])
				delete(m.entries, evicted.key)
			}
		}
		m.mu.Unlock()
		close(c.done)
		if evicted != nil && m.onEvict != nil {
			m.onEvict(evicted.key, evicted.val)
		}
	}()
	c.val, c.err = build()
	return c.val, Miss, c.err
}

// Lookup returns the cached value for key without building, promoting the
// entry on a hit.
func (m *Memo[V]) Lookup(key string) (V, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if el, ok := m.entries[key]; ok {
		m.ll.MoveToFront(el)
		return el.Value.(*memoEntry[V]).val, true
	}
	var zero V
	return zero, false
}

// Len returns the number of cached entries.
func (m *Memo[V]) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ll.Len()
}

// Keys returns the cached keys from most to least recently used.
func (m *Memo[V]) Keys() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	keys := make([]string, 0, m.ll.Len())
	for el := m.ll.Front(); el != nil; el = el.Next() {
		keys = append(keys, el.Value.(*memoEntry[V]).key)
	}
	return keys
}
