package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"diskreuse/internal/obs"
)

// TestStreamMatchesPrepared: -stream must produce byte-identical result
// blocks to the in-memory replay of the same binary trace, for every
// policy, with and without live metrics enabled.
func TestStreamMatchesPrepared(t *testing.T) {
	path := writeBinaryTrace(t, binReqs, 8)
	mk := func(stream bool, addr string) options {
		o := options{policy: "all", disks: 8, unit: 32 << 10, pageSize: 4096,
			jobs: 1, perDisk: true, disksSet: true, tracePath: path}
		o.stream = stream
		o.MetricsAddr = addr
		return o
	}
	prepared := withStdio(t, "", func() error { return run(mk(false, "")) })
	streamed := withStdio(t, "", func() error { return run(mk(true, "")) })
	if prepared != streamed {
		t.Errorf("-stream results differ from the prepared replay:\n--- prepared ---\n%s--- stream ---\n%s", prepared, streamed)
	}
	monitored := withStdio(t, "", func() error { return run(mk(true, "127.0.0.1:0")) })
	if monitored != streamed {
		t.Errorf("-metrics-addr perturbed the -stream results:\n--- plain ---\n%s--- monitored ---\n%s", streamed, monitored)
	}
	if !strings.Contains(streamed, "requests:        5") {
		t.Errorf("stream replay output:\n%s", streamed)
	}
}

// TestStreamJSONPureStdout: with -stream, -json, and a heartbeat running,
// stdout still holds exactly one JSON document — every human line
// (heartbeat, metrics announcement) stays on stderr.
func TestStreamJSONPureStdout(t *testing.T) {
	o := options{policy: "all", disks: 8, unit: 32 << 10, pageSize: 4096,
		jobs: 1, perDisk: true, disksSet: true, jsonOut: true,
		stream: true, Flags: obs.Flags{Heartbeat: time.Millisecond},
		tracePath: writeBinaryTrace(t, binReqs, 8)}
	out := withStdio(t, "", func() error { return run(o) })
	var pols []struct {
		Policy   string `json:"policy"`
		Requests int    `json:"requests"`
	}
	if err := json.Unmarshal([]byte(out), &pols); err != nil {
		t.Fatalf("stdout is not a single JSON document: %v\n%s", err, out)
	}
	if len(pols) != 3 || pols[0].Policy != "NoPM" || pols[2].Policy != "DRPM" {
		t.Fatalf("wrong policies: %+v", pols)
	}
	for _, p := range pols {
		if p.Requests != len(binReqs) {
			t.Errorf("%s replayed %d requests, want %d", p.Policy, p.Requests, len(binReqs))
		}
	}
}

// -stream needs a reopenable binary file: stdin and text traces must fail
// with errors that say why.
func TestStreamErrors(t *testing.T) {
	o := options{policy: "none", disks: 4, unit: 32 << 10, pageSize: 4096, jobs: 1, stream: true}
	if err := run(o); err == nil || !strings.Contains(err.Error(), "trace file") {
		t.Errorf("-stream from stdin: %v", err)
	}
	var text bytes.Buffer
	text.WriteString(traceText)
	path := filepath.Join(t.TempDir(), "trace.txt")
	if err := os.WriteFile(path, text.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	o.tracePath = path
	if err := run(o); err == nil || !strings.Contains(err.Error(), "binary") {
		t.Errorf("-stream on a text trace: %v", err)
	}
}

// TestStreamAdoptsHeaderDisks: -stream reads the disk count from the
// binary header when -disks is not given.
func TestStreamAdoptsHeaderDisks(t *testing.T) {
	o := options{policy: "none", disks: 8, unit: 32 << 10, pageSize: 4096, jobs: 1,
		perDisk: true, stream: true, tracePath: writeBinaryTrace(t, binReqs, 4)}
	out := withStdio(t, "", func() error { return run(o) })
	if !strings.Contains(out, "disk 3:") || strings.Contains(out, "disk 4:") {
		t.Errorf("expected 4 per-disk rows from the header's disk count, got:\n%s", out)
	}
}
