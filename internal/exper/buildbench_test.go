package exper

import (
	"bytes"
	"runtime"
	"strings"
	"testing"
)

// TestBuildBenchHostFacts: every row records the host it ran on and its
// build and decode times, both in the row and in the JSON written to
// BENCH_build.json.
func TestBuildBenchHostFacts(t *testing.T) {
	rows := BuildBench(&Options{Presets: []string{"antlr"}, Scale: 0.002})
	if len(rows) != 1 {
		t.Fatalf("expected 1 row, got %d", len(rows))
	}
	r := rows[0]
	if r.Gomaxprocs != runtime.GOMAXPROCS(0) || r.NumCPU < 1 || r.GoVersion != runtime.Version() {
		t.Fatalf("host facts not set: %+v", r)
	}
	if r.BuildNS <= 0 || r.DecodeNS <= 0 {
		t.Fatalf("missing timings: %+v", r)
	}
	var buf bytes.Buffer
	if err := WriteBuildBenchJSON(&buf, rows); err != nil {
		t.Fatal(err)
	}
	js := buf.String()
	for _, field := range []string{`"decode_ns": `, `"num_cpu": `, `"go_version": `} {
		if !strings.Contains(js, field) {
			t.Errorf("JSON lacks %s", field)
		}
	}
	if !strings.Contains(RenderBuildBench(rows), "antlr") {
		t.Error("render missing the row")
	}
}
