package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"diskreuse/internal/apps"
	"diskreuse/internal/exp"
	"diskreuse/internal/obs"
	"diskreuse/internal/server"
	"diskreuse/internal/trace"
)

// TestServedSimulateMatchesDpcsim cross-checks the two front doors of the
// simulator: a dpcd-served simulate result must equal what dpcsim reports
// when replaying the very same generated trace. The trace travels through
// the exact binary codec (the text format rounds arrival times), the
// program uses a single default-striped array so dpcsim's modular block
// mapping and the layout engine's extent mapping agree, and the three
// requested versions (Base, TPM, DRPM) replay the original schedule —
// exactly what the exported trace holds. Both outputs decode strictly into
// obs.RunResult, and every number in them, the makespan and the idle
// histogram included, must be bit-identical.
func TestServedSimulateMatchesDpcsim(t *testing.T) {
	const prog = `array A[96][8] elem 4096 stripe(unit=32K, factor=8, start=0)
nest Sweep {
  for i = 0 to 95 {
    for j = 0 to 7 {
      A[i][j] = A[i][j];
    }
  }
}
nest Back {
  for j = 0 to 7 {
    for i = 0 to 95 {
      A[i][j] = A[i][j];
    }
  }
}
`
	const cpi = 2e-6

	// Server side: POST the program, simulate Base/TPM/DRPM.
	srv := server.New(server.Config{Jobs: 1})
	body, _ := json.Marshal(server.SimulateRequest{
		CompileRequest: server.CompileRequest{Program: prog, ComputePerIter: cpi},
		Versions:       []string{"Base", "TPM", "DRPM"},
	})
	req := httptest.NewRequest(http.MethodPost, "/v1/simulate", strings.NewReader(string(body)))
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("simulate: %d %s", rec.Code, rec.Body)
	}
	var resp server.SimulateResponse
	strictDecode(t, rec.Body.Bytes(), &resp)
	if len(resp.Results) != 3 {
		t.Fatalf("got %d results, want 3", len(resp.Results))
	}

	// dpcsim side: prepare the identical artifacts, export the original
	// schedule's trace in the exact binary format, and replay it through
	// dpcsim's own run path with -json.
	art, err := exp.PrepareApp(context.Background(),
		apps.App{Name: "ident", Source: prog, ComputePerIter: cpi},
		exp.Options{Procs: 1, Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	reqs := art.TraceFor(exp.VBase)
	if len(reqs) == 0 {
		t.Fatal("no generated trace for Base")
	}
	path := filepath.Join(t.TempDir(), "trace.bin")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.EncodeBinary(f, reqs, 1, art.NumDisks()); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	resetFlags(t)
	o := options{disks: 8, unit: 32 << 10, pageSize: 4096, jobs: 1,
		policy: "none,tpm,drpm", jsonOut: true, tracePath: path}
	out := withStdio(t, "", func() error { return run(o) })
	var pols []obs.RunResult
	strictDecode(t, []byte(out), &pols)
	if len(pols) != 3 {
		t.Fatalf("dpcsim reported %d policies, want 3", len(pols))
	}

	// Both sides decode into the one record; every field but the labels
	// (app, version, procs, disk_runs) must be bit-identical.
	for i, served := range resp.Results {
		got := pols[i]
		got.App, got.Version, got.Procs, got.DiskRuns = served.App, served.Version, served.Procs, served.DiskRuns
		if !reflect.DeepEqual(got, served) {
			t.Errorf("%s: served record != dpcsim record\nserved: %+v\ndpcsim: %+v", served.Version, served, pols[i])
		}
	}
}

// strictDecode decodes one JSON document into v, rejecting any key that is
// not a field of v.
func strictDecode(t *testing.T, data []byte, v any) {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		t.Fatalf("strict decode into %T: %v\n%s", v, err, data)
	}
}
