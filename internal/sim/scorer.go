package sim

import (
	"fmt"
	"slices"
)

// EnergySummary is the scalar outcome of a memoized open-loop replay — the
// fields of Result a layout search ranks candidates by, folded in exactly
// the order RunPrepared folds them, so every value is bit-identical to the
// full replay's.
type EnergySummary struct {
	Energy       float64
	IOTime       float64
	ResponseTime float64
	Makespan     float64
	Requests     int
}

// Attribution is one candidate's request→disk mapping in the carved form
// the scorer consumes: per-disk index subsequences plus their hashes. A
// candidate is scored under several power policies; building the
// attribution once and passing it to each policy's scorer avoids repeating
// the O(requests) carve. The zero value is ready; Build reuses the backing
// across candidates of any size.
type Attribution struct {
	n      int
	carve  diskCarve
	hashes []uint64
}

// Build fills the attribution for a stream of n requests mapped by
// diskOf(i) onto numDisks disks.
func (a *Attribution) Build(n int, diskOf func(i int) int, numDisks int) error {
	a.n = -1
	if err := a.carve.build(n, numDisks, func(i int) (int, error) { return diskOf(i), nil }); err != nil {
		return err
	}
	a.n = n
	a.hashes = a.hashes[:0]
	for _, idx := range a.carve.perDisk {
		h := uint64(fnvOffset)
		for _, i := range idx {
			h = (h ^ uint64(uint32(i))) * fnvPrime
		}
		a.hashes = append(a.hashes, h)
	}
	return nil
}

// diskReplayEntry caches one disk's replay of one request subsequence: a
// snapshot of the disk's reducer at the end of the subsequence. idx pins
// the exact subsequence so a hash collision can never return a wrong
// entry.
type diskReplayEntry struct {
	idx []int32
	red diskReducer
}

// EnergyScorer scores many disk attributions of one fixed request stream
// under one policy configuration, memoizing per-disk replays. The stream
// is columnar — each request's arrival time, and one request size for all
// of them — because that is all an open-loop replay reads of a request
// once its disk is known.
//
// The open-loop replay is feedback-free across disks: a disk's busy/idle
// trajectory — and therefore its energy — is a pure function of the
// subsequence of requests attributed to it. Disks interact only through
// the final makespan, which foldDisks uses to bill every disk's idle tail.
// So a disk whose subsequence the scorer has cached skips the replay: Score
// re-runs only the cheap fold and finish tail against the candidate's
// makespan, on a copy of the cached reducer. Cache hits are verified by
// comparing the full index subsequence, never just its hash, so results
// are exact, not probabilistically exact.
//
// Repeats are the exception, not the rule: in a beam search nearly every
// candidate gets its own schedule, so the scorer sees most subsequences
// once. A subsequence is therefore cached only the second time its hash
// comes back; the first time the scorer remembers the 8-byte hash and
// replays into the fold's own reducer, copying no index list. A replay
// and a cache hit give the same bits, so admission changes speed and
// memory, never a score.
//
// An EnergyScorer is not safe for concurrent use; parallel searches give
// each worker its own via Clone (workers then build disjoint caches).
type EnergyScorer struct {
	cols columns // the stream: an arrival column and one size
	cfg  *Config // normalized, shared with clones; NumDisks varies per Score call

	entries map[uint64][]*diskReplayEntry
	seen    map[uint64]struct{} // hashes sighted at least once
	bytes   int                 // cached index and remembered hash bytes, for the flush bound
	empty   *diskReplayEntry

	att  Attribution   // scratch for the Score convenience path
	reds []diskReducer // the fold's reducers, each with its own ds.sub
	res  Result        // scratch fold target
}

// scorerCacheBytes bounds the memory the subsequence cache and the
// remembered hashes may hold before both are flushed wholesale
// (correctness is unaffected; only reuse resets).
const scorerCacheBytes = 64 << 20

// NewEnergyScorer prepares a memoizing scorer over a stream of requests of
// size bytes each, arriving at arrival[i] in arrival order (the order
// trace.SortedByArrival checks). arrival is aliased, never mutated.
// cfg.NumDisks is ignored (each Score call supplies its own disk count);
// features that observe per-request events — Sink, Idle, Attribution,
// Hints, Span, Metrics — must be off, since memoized replays are skipped,
// not re-observed; so a scorer's reducers carry no idle fold.
func NewEnergyScorer(arrival []float64, size int64, cfg Config) (*EnergyScorer, error) {
	for i := 1; i < len(arrival); i++ {
		if arrival[i] < arrival[i-1] {
			return nil, fmt.Errorf("sim: EnergyScorer stream must be sorted by arrival")
		}
	}
	if size <= 0 {
		return nil, fmt.Errorf("sim: EnergyScorer request size %d must be positive", size)
	}
	if cfg.Sink != nil || cfg.Idle != nil || cfg.Attribution != nil || cfg.Span != nil || cfg.Metrics != nil || len(cfg.Hints) > 0 {
		return nil, fmt.Errorf("sim: EnergyScorer cannot drive per-request observers (Sink/Idle/Attribution/Span/Metrics/Hints)")
	}
	cfg.NumDisks = 0
	norm, err := cfg.normalize(1)
	if err != nil {
		return nil, err
	}
	return &EnergyScorer{
		cols:    columns{arrival: arrival, size: size},
		cfg:     &norm,
		entries: make(map[uint64][]*diskReplayEntry),
		seen:    make(map[uint64]struct{}),
		empty:   &diskReplayEntry{red: newReducers(&norm)[0]},
	}, nil
}

// Clone returns a scorer over the same stream and configuration with an
// empty cache and its own scratch, for use from another goroutine.
func (s *EnergyScorer) Clone() *EnergyScorer {
	return &EnergyScorer{
		cols:    s.cols,
		cfg:     s.cfg,
		entries: make(map[uint64][]*diskReplayEntry),
		seen:    make(map[uint64]struct{}),
		empty:   s.empty,
	}
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// Score replays the stream with per-request attribution diskOf(i) over
// numDisks disks and returns the summary RunPrepared would produce —
// bit-for-bit — reusing cached per-disk replays where the attribution
// leaves a disk's subsequence unchanged.
func (s *EnergyScorer) Score(diskOf func(i int) int, numDisks int) (EnergySummary, error) {
	if err := s.att.Build(len(s.cols.arrival), diskOf, numDisks); err != nil {
		return EnergySummary{}, err
	}
	return s.ScoreAttribution(&s.att)
}

// ScoreAttribution scores a pre-built attribution, so one carve can feed
// several policies' scorers. att must have been built over a stream of the
// same length.
func (s *EnergyScorer) ScoreAttribution(att *Attribution) (EnergySummary, error) {
	if att.n != len(s.cols.arrival) {
		return EnergySummary{}, fmt.Errorf("sim: attribution built over %d requests, stream has %d", att.n, len(s.cols.arrival))
	}
	perDisk := att.carve.perDisk
	if cap(s.reds) < len(perDisk) {
		s.reds = make([]diskReducer, len(perDisk))
		s.res.PerDisk = make([]DiskStats, len(perDisk))
	}
	reds := s.reds[:len(perDisk)]
	for d, idx := range perDisk {
		s.lookupOrReplay(att.hashes[d], idx, &reds[d])
	}
	s.res = Result{PerDisk: s.res.PerDisk[:len(perDisk)]}
	foldDisks(s.cfg, reds, &s.res)
	return EnergySummary{
		Energy:       s.res.Energy,
		IOTime:       s.res.IOTime,
		ResponseTime: s.res.ResponseTime,
		Makespan:     s.res.Makespan,
		Requests:     len(s.cols.arrival),
	}, nil
}

// lookupOrReplay sets dst to the disk's reducer at the end of the
// subsequence idx, whose hash is h. A cached subsequence, verified
// element-wise, is copied from its entry. An uncached one is replayed: on
// its hash's first sighting straight into dst, keeping only the hash; on a
// later one into a new entry that is cached, then copied. It returns the
// entry dst was copied from, or nil when nothing was cached.
func (s *EnergyScorer) lookupOrReplay(h uint64, idx []int32, dst *diskReducer) *diskReplayEntry {
	if len(idx) == 0 {
		dst.snapshot(&s.empty.red)
		return s.empty
	}
	for _, en := range s.entries[h] {
		if slices.Equal(en.idx, idx) {
			dst.snapshot(&en.red)
			return en
		}
	}
	if _, ok := s.seen[h]; !ok {
		s.charge(8)
		s.seen[h] = struct{}{}
		dst.snapshot(&s.empty.red)
		dst.replay(&s.cols, idx, nil)
		return nil
	}
	en := &diskReplayEntry{idx: slices.Clone(idx)}
	en.red.snapshot(&s.empty.red)
	en.red.replay(&s.cols, idx, nil)
	s.charge(4 * len(idx))
	s.entries[h] = append(s.entries[h], en)
	dst.snapshot(&en.red)
	return en
}

// charge accounts n more bytes to the cache, first flushing the entries
// and the remembered hashes wholesale when n would take the total past
// scorerCacheBytes.
func (s *EnergyScorer) charge(n int) {
	if s.bytes+n > scorerCacheBytes {
		s.entries = make(map[uint64][]*diskReplayEntry)
		s.seen = make(map[uint64]struct{})
		s.bytes = 0
	}
	s.bytes += n
}
