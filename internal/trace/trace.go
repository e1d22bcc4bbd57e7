// Package trace defines the disk I/O request trace that connects the
// compiler side of the system to the disk simulator, mirroring §7.1 of the
// paper: the compiler-transformed code is run through a trace generator,
// and the simulator is driven by the resulting externally-provided request
// trace. Each request carries the five fields the paper lists — arrival
// time, start block, size, read/write type, and processor id.
package trace

import (
	"bufio"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
)

// Request is one disk I/O request.
type Request struct {
	Arrival float64 // seconds since application start
	Block   int64   // logical page-block number (striped over I/O nodes)
	Size    int64   // bytes
	Write   bool
	Proc    int // id of the requesting processor
}

// Encode writes requests in the paper's five-field text format, one request
// per line: arrival time in milliseconds, start block, size in bytes,
// R or W, processor id.
func Encode(w io.Writer, reqs []Request) error {
	bw := bufio.NewWriter(w)
	for _, r := range reqs {
		typ := "R"
		if r.Write {
			typ = "W"
		}
		if _, err := fmt.Fprintf(bw, "%.6f %d %d %s %d\n",
			r.Arrival*1e3, r.Block, r.Size, typ, r.Proc); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Decode parses the text format produced by Encode.
func Decode(r io.Reader) ([]Request, error) {
	var out []Request
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 5 {
			return nil, fmt.Errorf("trace: line %d: want 5 fields, got %d", lineNo, len(f))
		}
		ms, err := strconv.ParseFloat(f[0], 64)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: bad arrival %q", lineNo, f[0])
		}
		block, err := strconv.ParseInt(f[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: bad block %q", lineNo, f[1])
		}
		size, err := strconv.ParseInt(f[2], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: bad size %q", lineNo, f[2])
		}
		var write bool
		switch f[3] {
		case "R", "r":
		case "W", "w":
			write = true
		default:
			return nil, fmt.Errorf("trace: line %d: bad type %q", lineNo, f[3])
		}
		proc, err := strconv.Atoi(f[4])
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: bad processor %q", lineNo, f[4])
		}
		out = append(out, Request{Arrival: ms / 1e3, Block: block, Size: size, Write: write, Proc: proc})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// SortByArrival orders requests by arrival time (stable, preserving
// generation order for equal times). The comparator is negative exactly
// when a arrives before b, so the order is sort.SliceStable's with less
// a.Arrival < b.Arrival, NaN arrivals included (cmp.Compare would move
// them first).
func SortByArrival(reqs []Request) {
	slices.SortStableFunc(reqs, func(a, b Request) int {
		switch {
		case a.Arrival < b.Arrival:
			return -1
		case b.Arrival < a.Arrival:
			return 1
		}
		return 0
	})
}

// SortedByArrival reports whether reqs is already in arrival order. The
// simulator uses it to skip the defensive copy-and-sort on traces that come
// straight out of Generate (always in arrival order): any subsequence of a
// sorted slice is itself sorted, with equal-arrival relative order
// preserved, so skipping the stable re-sort is exact.
func SortedByArrival(reqs []Request) bool {
	for i := 1; i < len(reqs); i++ {
		if reqs[i].Arrival < reqs[i-1].Arrival {
			return false
		}
	}
	return true
}
