package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"diskreuse/internal/trace"
)

// binReqs is the binary-sniffing tests' workload: two bursts with a
// spin-down-worthy gap, like traceText but written programmatically.
var binReqs = []trace.Request{
	{Arrival: 0.000, Block: 0, Size: 4096, Proc: 0},
	{Arrival: 0.005, Block: 1, Size: 4096, Proc: 0},
	{Arrival: 0.010, Block: 8, Size: 4096, Write: true, Proc: 0},
	{Arrival: 50.000, Block: 0, Size: 4096, Proc: 0},
	{Arrival: 50.005, Block: 16, Size: 4096, Proc: 0},
}

func writeBinaryTrace(t *testing.T, reqs []trace.Request, numDisks int) string {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.EncodeBinary(&buf, reqs, 0, numDisks); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.dpct")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestBinaryTraceSniff: a binary trace file is detected from its magic and
// replays to the same report as the equivalent text trace.
func TestBinaryTraceSniff(t *testing.T) {
	binPath := writeBinaryTrace(t, binReqs, 8)
	var text bytes.Buffer
	if err := trace.Encode(&text, binReqs); err != nil {
		t.Fatal(err)
	}
	base := options{policy: "all", disks: 8, unit: 32 << 10, pageSize: 4096, jobs: 1, disksSet: true}

	ob := base
	ob.tracePath = binPath
	fromBinary := withStdio(t, "", func() error { return run(ob) })
	fromText := withStdio(t, text.String(), func() error { return run(base) })
	if fromBinary != fromText {
		t.Errorf("binary and text replays of the same trace differ:\n--- binary ---\n%s--- text ---\n%s", fromBinary, fromText)
	}
	if !strings.Contains(fromBinary, "requests:        5") {
		t.Errorf("binary replay output:\n%s", fromBinary)
	}
}

// TestBinaryTraceAdoptsHeaderDisks: without an explicit -disks, the disk
// count comes from the binary header.
func TestBinaryTraceAdoptsHeaderDisks(t *testing.T) {
	o := options{policy: "none", disks: 8, unit: 32 << 10, pageSize: 4096, jobs: 1, perDisk: true,
		tracePath: writeBinaryTrace(t, binReqs, 4)}
	out := withStdio(t, "", func() error { return run(o) })
	if !strings.Contains(out, "disk 3:") || strings.Contains(out, "disk 4:") {
		t.Errorf("expected 4 per-disk rows from the header's disk count, got:\n%s", out)
	}
}

// TestBinaryTraceTruncated: a cut-short binary trace fails with a clear
// error instead of replaying a partial workload.
func TestBinaryTraceTruncated(t *testing.T) {
	path := writeBinaryTrace(t, binReqs, 8)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	o := options{policy: "none", disks: 8, unit: 32 << 10, pageSize: 4096, jobs: 1, disksSet: true, tracePath: path}
	err = run(o)
	if err == nil {
		t.Fatal("truncated binary trace replayed without error")
	}
	if !strings.Contains(err.Error(), "binary trace") || !strings.Contains(err.Error(), "truncated") {
		t.Errorf("truncation error should diagnose the cut: %v", err)
	}
}

// TestBinaryTraceHugeDeclaredCount: a 16-byte file whose header declares
// 2^40 requests (1 processor, 8 disks, chunk capacity 8192) and holds no
// chunk fails with the reader's count mismatch; the decode must not size
// anything from the declared count.
func TestBinaryTraceHugeDeclaredCount(t *testing.T) {
	path := filepath.Join(t.TempDir(), "huge.dpct")
	hdr := []byte{0xd9, 0x50, 0x43, 0x54, 0x01, 0x00, 0x01, 0x08, 0x80, 0x80, 0x80, 0x80, 0x80, 0x20, 0x80, 0x40}
	if err := os.WriteFile(path, hdr, 0o644); err != nil {
		t.Fatal(err)
	}
	o := options{policy: "none", disks: 8, unit: 32 << 10, pageSize: 4096, jobs: 1, tracePath: path}
	err := run(o)
	if err == nil || !strings.Contains(err.Error(), "decoded 0 requests but the header declared 1099511627776") {
		t.Fatalf("err = %v, want the reader's declared-count mismatch", err)
	}
}
