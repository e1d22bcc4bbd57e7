// Binary trace codec: the out-of-core representation of a request trace.
//
// The text format of Encode/Decode is the paper's interchange format; it is
// fine for the paper-scale traces but it is ~40 bytes per request and must
// be parsed line by line. The binary format here is the streaming
// counterpart: a small self-describing header followed by fixed-size
// chunks that decode independently into reusable request arenas, so a
// trace far larger than RAM replays with bounded memory — the reader holds
// exactly one chunk at a time.
//
// Layout (all multi-byte integers are varints; see chunk framing below):
//
//	header  = magic "\xd9PCT" | version u8 | flags u8 (0)
//	        | uvarint numProcs | uvarint numDisks
//	        | uvarint numRequests | uvarint chunkCap
//	chunk   = count u32le | payloadLen u32le | payload
//	payload = request × count, each:
//	          uvarint (proc<<1 | writeBit)
//	          uvarint (float64bits(arrival) XOR float64bits(prevArrival))
//	          zigzag-uvarint (block − prevBlock)
//	          uvarint size
//
// Arrival times are delta-encoded on their IEEE-754 bit patterns (XOR with
// the previous request's bits): neighboring arrivals in a sorted trace
// share their exponent and high mantissa bits, so the XOR has many leading
// zero bytes and the varint stays short — and unlike an arithmetic delta
// the reconstruction is exact, bit for bit, which the streaming replay's
// bit-identity contract requires. Block numbers use a zigzag varint delta
// (disk access locality keeps the deltas small). Both delta states reset
// at every chunk boundary, so any chunk decodes without its predecessors.
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"

	"diskreuse/internal/metrics"
)

// Binary format constants.
const (
	// binaryMagic opens every binary trace file. The first byte (0xD9) is
	// outside ASCII, so no text trace can start with it and sniffing the
	// encoding from the first bytes is unambiguous.
	binaryMagic = "\xd9PCT"
	// BinaryVersion is the format version this package writes.
	BinaryVersion = 1
	// DefaultChunkRequests is the default chunk capacity. 8192 requests ≈
	// 256 KiB decoded — small enough that a reader plus its per-disk
	// partition scratch stays far under any realistic memory budget, big
	// enough that per-chunk framing and fan-out costs vanish.
	DefaultChunkRequests = 8192
	// maxChunkRequests bounds the chunk capacity a reader will accept, so
	// a corrupt header cannot make it allocate an absurd arena.
	maxChunkRequests = 1 << 22
	// maxReqEncoding is the worst-case encoded size of one request
	// (4 varints of ≤ 10 bytes each); readers use it to sanity-check the
	// declared payload length before buffering a chunk.
	maxReqEncoding = 40
	// chunkFrameLen is the fixed chunk framing: count and payload length,
	// both little-endian u32.
	chunkFrameLen = 8
)

// IsBinaryTrace reports whether the byte prefix opens a binary trace
// (starts with the binary magic). Four bytes suffice.
func IsBinaryTrace(prefix []byte) bool {
	return len(prefix) >= len(binaryMagic) && string(prefix[:len(binaryMagic)]) == binaryMagic
}

// Header describes a binary trace.
type Header struct {
	// NumProcs is the number of distinct processor (tenant) ids; every
	// request's Proc must lie in [0, NumProcs).
	NumProcs int
	// NumDisks records the disk count the trace was generated against —
	// metadata for the consumer (dpcsim adopts it when -disks is not
	// given); the codec itself never maps blocks to disks.
	NumDisks int
	// NumRequests is the total request count; the reader verifies it
	// against the sum of the chunk counts.
	NumRequests int64
	// ChunkCap is the maximum requests per chunk; zero selects
	// DefaultChunkRequests.
	ChunkCap int
}

func (h Header) validate() error {
	if h.NumProcs <= 0 {
		return fmt.Errorf("trace: header NumProcs %d must be positive", h.NumProcs)
	}
	if h.NumDisks <= 0 {
		return fmt.Errorf("trace: header NumDisks %d must be positive", h.NumDisks)
	}
	if h.NumRequests < 0 {
		return fmt.Errorf("trace: header NumRequests %d must be >= 0", h.NumRequests)
	}
	if h.ChunkCap < 0 {
		return fmt.Errorf("trace: header ChunkCap %d must be >= 0 (0 selects the default %d)", h.ChunkCap, DefaultChunkRequests)
	}
	if h.ChunkCap > maxChunkRequests {
		return fmt.Errorf("trace: header ChunkCap %d exceeds the maximum %d", h.ChunkCap, maxChunkRequests)
	}
	return nil
}

// Source is the simulator-facing iterator over a trace: an in-memory slice
// (SliceSource), a prepared trace (sim.PreparedTrace.Source) and the
// chunked binary reader (Reader) satisfy it,
// so a consumer written against Source replays traces of any size with the
// memory footprint of one chunk.
//
// Next returns the next chunk of requests in trace order and io.EOF after
// the last one. The returned slice is only valid until the next Next or
// Close call: implementations reuse one arena across chunks, which is what
// makes steady-state streaming allocation-free.
type Source interface {
	// Requests returns the total request count, or -1 when unknown.
	Requests() int64
	// Next returns the next chunk, or nil and io.EOF at the end.
	Next() ([]Request, error)
	// Close releases the source's decode arena. The source must not be
	// used afterwards.
	Close() error
}

// arenaPools holds sync.Pool request arenas bucketed by exact capacity.
// Chunk capacities come from file headers, so in practice one or two
// buckets exist and every reader of the same format hits the same pool;
// keying by exact capacity keeps the pre-sizing exact — an arena is never
// grown or reallocated after it leaves the pool.
var arenaPools sync.Map // int (capacity) → *sync.Pool

func arenaGet(capacity int) []Request {
	p, ok := arenaPools.Load(capacity)
	if !ok {
		p, _ = arenaPools.LoadOrStore(capacity, &sync.Pool{
			New: func() any { return make([]Request, capacity) },
		})
	}
	return p.(*sync.Pool).Get().([]Request)
}

func arenaPut(arena []Request) {
	capacity := cap(arena)
	if capacity == 0 {
		return
	}
	p, ok := arenaPools.Load(capacity)
	if !ok {
		p, _ = arenaPools.LoadOrStore(capacity, &sync.Pool{
			New: func() any { return make([]Request, capacity) },
		})
	}
	p.(*sync.Pool).Put(arena[:capacity])
}

// Writer encodes requests into the chunked binary format. Write may be
// called any number of times with any slice sizes; the writer re-chunks
// internally. Close flushes the final partial chunk and verifies the
// header's declared request count was written exactly.
type Writer struct {
	w       *bufio.Writer
	hdr     Header
	pending int   // requests encoded into buf's current chunk
	written int64 // total requests written
	buf     []byte
	frame   [chunkFrameLen]byte
	prevA   uint64 // arrival bits of the previous request in the chunk
	prevB   int64  // block of the previous request in the chunk
}

// NewWriter writes the header and returns a chunking writer. The header's
// ChunkCap zero value selects DefaultChunkRequests.
func NewWriter(w io.Writer, h Header) (*Writer, error) {
	if h.ChunkCap == 0 {
		h.ChunkCap = DefaultChunkRequests
	}
	if err := h.validate(); err != nil {
		return nil, err
	}
	bw := bufio.NewWriterSize(w, 1<<16)
	var hb []byte
	hb = append(hb, binaryMagic...)
	hb = append(hb, BinaryVersion, 0)
	hb = binary.AppendUvarint(hb, uint64(h.NumProcs))
	hb = binary.AppendUvarint(hb, uint64(h.NumDisks))
	hb = binary.AppendUvarint(hb, uint64(h.NumRequests))
	hb = binary.AppendUvarint(hb, uint64(h.ChunkCap))
	if _, err := bw.Write(hb); err != nil {
		return nil, err
	}
	return &Writer{
		w:   bw,
		hdr: h,
		buf: make([]byte, 0, h.ChunkCap*16), // typical encodings are ≤ 16 B/req
	}, nil
}

// Header returns the header the writer was created with.
func (w *Writer) Header() Header { return w.hdr }

// Write appends requests to the trace.
func (w *Writer) Write(reqs []Request) error {
	for i := range reqs {
		r := &reqs[i]
		if r.Proc < 0 || r.Proc >= w.hdr.NumProcs {
			return fmt.Errorf("trace: request %d: proc %d outside header range 0..%d",
				w.written+int64(w.pending), r.Proc, w.hdr.NumProcs-1)
		}
		if r.Size < 0 {
			return fmt.Errorf("trace: request %d: negative size %d", w.written+int64(w.pending), r.Size)
		}
		meta := uint64(r.Proc) << 1
		if r.Write {
			meta |= 1
		}
		bits := math.Float64bits(r.Arrival)
		w.buf = binary.AppendUvarint(w.buf, meta)
		w.buf = binary.AppendUvarint(w.buf, bits^w.prevA)
		w.buf = binary.AppendVarint(w.buf, r.Block-w.prevB)
		w.buf = binary.AppendUvarint(w.buf, uint64(r.Size))
		w.prevA, w.prevB = bits, r.Block
		w.pending++
		if w.pending == w.hdr.ChunkCap {
			if err := w.flushChunk(); err != nil {
				return err
			}
		}
	}
	return nil
}

func (w *Writer) flushChunk() error {
	if w.pending == 0 {
		return nil
	}
	binary.LittleEndian.PutUint32(w.frame[0:4], uint32(w.pending))
	binary.LittleEndian.PutUint32(w.frame[4:8], uint32(len(w.buf)))
	if _, err := w.w.Write(w.frame[:]); err != nil {
		return err
	}
	if _, err := w.w.Write(w.buf); err != nil {
		return err
	}
	w.written += int64(w.pending)
	w.pending = 0
	w.buf = w.buf[:0]
	w.prevA, w.prevB = 0, 0 // delta state resets at every chunk boundary
	return nil
}

// Close flushes the final chunk and checks the declared request count.
// It does not close the underlying io.Writer.
func (w *Writer) Close() error {
	if err := w.flushChunk(); err != nil {
		return err
	}
	if err := w.w.Flush(); err != nil {
		return err
	}
	if w.written != w.hdr.NumRequests {
		return fmt.Errorf("trace: wrote %d requests but the header declared %d", w.written, w.hdr.NumRequests)
	}
	return nil
}

// EncodeBinary writes reqs as one binary trace. numProcs and numDisks
// become header metadata; numProcs zero derives the count from the
// requests (max proc id + 1, minimum 1).
func EncodeBinary(w io.Writer, reqs []Request, numProcs, numDisks int) error {
	if numProcs == 0 {
		numProcs = 1
		for i := range reqs {
			if reqs[i].Proc >= numProcs {
				numProcs = reqs[i].Proc + 1
			}
		}
	}
	bw, err := NewWriter(w, Header{
		NumProcs:    numProcs,
		NumDisks:    numDisks,
		NumRequests: int64(len(reqs)),
	})
	if err != nil {
		return err
	}
	if err := bw.Write(reqs); err != nil {
		return err
	}
	return bw.Close()
}

// Reader streams a binary trace chunk by chunk. It decodes into a pooled
// arena pre-sized to the header's chunk capacity, so after the first chunk
// (or with a warm pool, from the very first) the steady state allocates
// nothing per chunk. Close returns the arena to the pool.
type Reader struct {
	r       *bufio.Reader
	hdr     Header
	arena   []Request
	payload []byte
	frame   [chunkFrameLen]byte
	chunk   int   // index of the next chunk, for error messages
	decoded int64 // requests decoded so far
	done    bool

	// Live decode-throughput counters; nil unless SetMetrics installed
	// them. Updated once per chunk, never inside the decode loop.
	mChunks, mRequests, mBytes *metrics.Counter
}

// Live metric names the binary decoder publishes via SetMetrics.
const (
	metricTraceChunks   = "trace_chunks_decoded_total"
	metricTraceRequests = "trace_requests_decoded_total"
	metricTraceBytes    = "trace_bytes_decoded_total"
)

// SetMetrics installs live decode-throughput counters — chunks, requests,
// and payload bytes decoded — resolved once here so Next pays only nil
// checks at chunk granularity. A nil registry is a no-op.
func (r *Reader) SetMetrics(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	r.mChunks = reg.Counter(metricTraceChunks, "binary trace chunks decoded")
	r.mRequests = reg.Counter(metricTraceRequests, "binary trace requests decoded")
	r.mBytes = reg.Counter(metricTraceBytes, "binary trace payload bytes decoded (before framing)")
}

// NewReader reads and validates the header of a binary trace.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	magic := make([]byte, len(binaryMagic)+2)
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("trace: reading binary header: %w", errTruncated(err))
	}
	if !IsBinaryTrace(magic) {
		return nil, fmt.Errorf("trace: bad magic %q: not a binary trace", magic[:len(binaryMagic)])
	}
	if v := magic[len(binaryMagic)]; v != BinaryVersion {
		return nil, fmt.Errorf("trace: unsupported binary trace version %d (want %d)", v, BinaryVersion)
	}
	var h Header
	var err error
	if h.NumProcs, err = readUvarintInt(br, "NumProcs"); err != nil {
		return nil, err
	}
	if h.NumDisks, err = readUvarintInt(br, "NumDisks"); err != nil {
		return nil, err
	}
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("trace: reading header NumRequests: %w", errTruncated(err))
	}
	if n > math.MaxInt64 {
		return nil, fmt.Errorf("trace: header NumRequests %d overflows", n)
	}
	h.NumRequests = int64(n)
	if h.ChunkCap, err = readUvarintInt(br, "ChunkCap"); err != nil {
		return nil, err
	}
	if h.ChunkCap == 0 {
		return nil, fmt.Errorf("trace: header ChunkCap must be positive")
	}
	if err := h.validate(); err != nil {
		return nil, err
	}
	return &Reader{
		r:       br,
		hdr:     h,
		arena:   arenaGet(h.ChunkCap),
		payload: make([]byte, 0, h.ChunkCap*16),
	}, nil
}

func readUvarintInt(r io.ByteReader, field string) (int, error) {
	v, err := binary.ReadUvarint(r)
	if err != nil {
		return 0, fmt.Errorf("trace: reading header %s: %w", field, errTruncated(err))
	}
	if v > math.MaxInt32 {
		return 0, fmt.Errorf("trace: header %s %d overflows", field, v)
	}
	return int(v), nil
}

// errTruncated rewrites a bare EOF into a diagnosis: EOF in the middle of
// a structure means the file was cut short, not that it ended cleanly.
func errTruncated(err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return fmt.Errorf("truncated trace: %w", io.ErrUnexpectedEOF)
	}
	return err
}

// Header returns the trace's header.
func (r *Reader) Header() Header { return r.hdr }

// Requests returns the header's declared request count.
func (r *Reader) Requests() int64 { return r.hdr.NumRequests }

// Next decodes the next chunk into the reader's arena and returns it. The
// slice is valid until the next Next or Close call. After the final chunk
// it verifies the total against the header and returns io.EOF.
func (r *Reader) Next() ([]Request, error) {
	if r.done {
		return nil, io.EOF
	}
	if _, err := io.ReadFull(r.r, r.frame[:]); err != nil {
		if err == io.EOF {
			// Clean end of file between chunks: the trace is complete iff
			// the chunk counts add up to the header's declaration.
			r.done = true
			if r.decoded != r.hdr.NumRequests {
				return nil, fmt.Errorf("trace: decoded %d requests but the header declared %d (truncated trace?)",
					r.decoded, r.hdr.NumRequests)
			}
			return nil, io.EOF
		}
		return nil, fmt.Errorf("trace: chunk %d: reading chunk header: %w", r.chunk, errTruncated(err))
	}
	count := int(binary.LittleEndian.Uint32(r.frame[0:4]))
	payloadLen := int(binary.LittleEndian.Uint32(r.frame[4:8]))
	switch {
	case count == 0:
		return nil, fmt.Errorf("trace: chunk %d: corrupt chunk header: zero request count", r.chunk)
	case count > r.hdr.ChunkCap:
		return nil, fmt.Errorf("trace: chunk %d: corrupt chunk header: count %d exceeds chunk capacity %d",
			r.chunk, count, r.hdr.ChunkCap)
	case payloadLen < count*4 || payloadLen > count*maxReqEncoding:
		return nil, fmt.Errorf("trace: chunk %d: corrupt chunk header: payload length %d implausible for %d requests",
			r.chunk, payloadLen, count)
	case int64(count) > r.hdr.NumRequests-r.decoded:
		return nil, fmt.Errorf("trace: chunk %d: corrupt chunk header: count %d overruns the header's declared total %d",
			r.chunk, count, r.hdr.NumRequests)
	}
	if cap(r.payload) < payloadLen {
		r.payload = make([]byte, payloadLen)
	}
	buf := r.payload[:payloadLen]
	if _, err := io.ReadFull(r.r, buf); err != nil {
		return nil, fmt.Errorf("trace: chunk %d: reading %d-byte payload: %w", r.chunk, payloadLen, errTruncated(err))
	}
	// The decode loop is the stream replay's hot path (BenchmarkRunStream is
	// decode-bound), so each field checks the single-byte case in place —
	// meta and the zigzag block delta are almost always one byte — and only
	// longer varints call uvarintAt, whose two-byte early exit covers the
	// page size and most arrival XOR deltas. This replaces binary.Uvarint on
	// a fresh sub-slice per field, which is a non-inlinable call even for
	// one-byte values.
	out := r.arena[:count]
	var prevA uint64
	var prevB int64
	maxProc := uint64(r.hdr.NumProcs - 1)
	pos := 0
	for i := 0; i < count; i++ {
		var meta uint64
		if uint(pos) < uint(len(buf)) && buf[pos] < 0x80 {
			meta = uint64(buf[pos])
			pos++
		} else {
			v, n := uvarintAt(buf, pos)
			if n < 0 {
				return nil, r.corrupt(i, "meta varint")
			}
			meta, pos = v, n
		}
		if meta>>1 > maxProc {
			return nil, fmt.Errorf("trace: chunk %d: request %d: proc %d outside header range 0..%d",
				r.chunk, i, meta>>1, r.hdr.NumProcs-1)
		}
		var abits uint64
		if uint(pos) < uint(len(buf)) && buf[pos] < 0x80 {
			abits = uint64(buf[pos])
			pos++
		} else {
			v, n := uvarintAt(buf, pos)
			if n < 0 {
				return nil, r.corrupt(i, "arrival varint")
			}
			abits, pos = v, n
		}
		prevA ^= abits
		arrival := math.Float64frombits(prevA)
		if math.IsNaN(arrival) || math.IsInf(arrival, 0) {
			return nil, fmt.Errorf("trace: chunk %d: request %d: non-finite arrival", r.chunk, i)
		}
		var bdelta int64
		if uint(pos) < uint(len(buf)) && buf[pos] < 0x80 {
			b := buf[pos]
			bdelta = int64(b>>1) ^ -int64(b&1)
			pos++
		} else {
			v, n := varintAt(buf, pos)
			if n < 0 {
				return nil, r.corrupt(i, "block varint")
			}
			bdelta, pos = v, n
		}
		prevB += bdelta
		var size uint64
		if uint(pos) < uint(len(buf)) && buf[pos] < 0x80 {
			size = uint64(buf[pos])
			pos++
		} else {
			v, n := uvarintAt(buf, pos)
			if n < 0 {
				return nil, r.corrupt(i, "size varint")
			}
			size, pos = v, n
		}
		if size > math.MaxInt64 {
			return nil, fmt.Errorf("trace: chunk %d: request %d: size %d overflows", r.chunk, i, size)
		}
		out[i] = Request{
			Arrival: arrival,
			Block:   prevB,
			Size:    int64(size),
			Write:   meta&1 != 0,
			Proc:    int(meta >> 1),
		}
	}
	if pos != payloadLen {
		return nil, fmt.Errorf("trace: chunk %d: %d trailing bytes after %d requests (corrupt payload)",
			r.chunk, payloadLen-pos, count)
	}
	r.chunk++
	r.decoded += int64(count)
	if r.mChunks != nil {
		r.mChunks.Inc()
		r.mRequests.Add(float64(count))
		r.mBytes.Add(float64(chunkFrameLen + payloadLen))
	}
	return out, nil
}

func (r *Reader) corrupt(i int, what string) error {
	return fmt.Errorf("trace: chunk %d: request %d: truncated or corrupt %s", r.chunk, i, what)
}

// Close returns the decode arena to the pool. It does not close the
// underlying io.Reader.
func (r *Reader) Close() error {
	if r.arena != nil {
		arenaPut(r.arena)
		r.arena = nil
	}
	r.done = true
	return nil
}

// ReadAll decodes every remaining chunk into one new slice. The slice is
// preallocated from the header's declared count only up to one chunk's
// maximum, so a header that declares more requests than the file holds
// costs no more than the requests actually decoded.
func (r *Reader) ReadAll() ([]Request, error) {
	var out []Request
	if n := r.Requests(); n > 0 && n <= maxChunkRequests {
		out = make([]Request, 0, n)
	}
	for {
		chunk, err := r.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, chunk...)
	}
}

// DecodeBinary reads a whole binary trace into memory — the bridge for
// consumers that need the whole trace at once (sim.PrepareTrace) or for
// binary traces arriving on a non-seekable stream.
func DecodeBinary(rd io.Reader) ([]Request, error) {
	r, err := NewReader(rd)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	return r.ReadAll()
}

// SliceSource adapts an in-memory request slice to the Source interface,
// yielding it in chunks without copying. Tests use it to stream rows a
// prepared trace cannot hold, such as an unsorted trace.
type SliceSource struct {
	reqs  []Request
	chunk int
	off   int
}

// NewSliceSource wraps reqs; chunk <= 0 selects DefaultChunkRequests.
func NewSliceSource(reqs []Request, chunk int) *SliceSource {
	if chunk <= 0 {
		chunk = DefaultChunkRequests
	}
	return &SliceSource{reqs: reqs, chunk: chunk}
}

// Requests returns the slice length.
func (s *SliceSource) Requests() int64 { return int64(len(s.reqs)) }

// Next returns the next chunk-sized window of the slice.
func (s *SliceSource) Next() ([]Request, error) {
	if s.off >= len(s.reqs) {
		return nil, io.EOF
	}
	end := s.off + s.chunk
	if end > len(s.reqs) {
		end = len(s.reqs)
	}
	out := s.reqs[s.off:end]
	s.off = end
	return out, nil
}

// Close is a no-op (the slice belongs to the caller).
func (s *SliceSource) Close() error {
	s.off = len(s.reqs)
	return nil
}

// uvarintAt decodes an unsigned varint from buf at pos and returns the value
// and the position just past it; a negative position means the varint is
// truncated or overflows 64 bits. The decode loop handles the single-byte
// case in place and calls this for the rest, so the two-byte early exit here
// covers nearly everything — typically the page size and arrival deltas —
// before uvarintSlowAt's general loop.
func uvarintAt(buf []byte, pos int) (uint64, int) {
	if uint(pos) < uint(len(buf)) {
		b := buf[pos]
		if b < 0x80 {
			return uint64(b), pos + 1
		}
		if uint(pos+1) < uint(len(buf)) {
			if b2 := buf[pos+1]; b2 < 0x80 {
				return uint64(b&0x7f) | uint64(b2)<<7, pos + 2
			}
		}
	}
	return uvarintSlowAt(buf, pos)
}

// uvarintSlowAt finishes varints of three or more bytes with the same error
// conditions as binary.Uvarint: truncation and 64-bit overflow are negative.
func uvarintSlowAt(buf []byte, pos int) (uint64, int) {
	var x uint64
	var s uint
	for i := pos; i < len(buf); i++ {
		b := buf[i]
		if b < 0x80 {
			if s == 63 && b > 1 {
				return 0, -1 // value overflows 64 bits
			}
			return x | uint64(b)<<s, i + 1
		}
		if s == 63 {
			return 0, -1 // more than ten continuation bytes
		}
		x |= uint64(b&0x7f) << s
		s += 7
	}
	return 0, -1 // truncated
}

// varintAt is uvarintAt plus the zigzag decode used for block deltas.
func varintAt(buf []byte, pos int) (int64, int) {
	ux, n := uvarintAt(buf, pos)
	return int64(ux>>1) ^ -int64(ux&1), n
}
