package exper

import (
	"bytes"
	"runtime"
	"strings"
	"testing"
)

// TestBuildBenchHostFacts: every row records the host it ran on, and the
// decode speedup is null exactly when the run had fewer cores than
// workers, both in the row and in the JSON written to BENCH_build.json.
func TestBuildBenchHostFacts(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	for _, workers := range []int{1, procs + 1} {
		rows := BuildBench(&Options{Presets: []string{"antlr"}, Scale: 0.002, Workers: workers})
		if len(rows) != 1 {
			t.Fatalf("-j%d: expected 1 row, got %d", workers, len(rows))
		}
		r := rows[0]
		if r.Gomaxprocs != procs || r.NumCPU < 1 || r.GoVersion != runtime.Version() {
			t.Fatalf("-j%d: host facts not set: %+v", workers, r)
		}
		wantNull := procs < workers
		if (r.DecodeSpeedup == nil) != wantNull {
			t.Fatalf("-j%d on GOMAXPROCS=%d: decode speedup null = %v, want %v",
				workers, procs, r.DecodeSpeedup == nil, wantNull)
		}
		var buf bytes.Buffer
		if err := WriteBuildBenchJSON(&buf, rows); err != nil {
			t.Fatal(err)
		}
		js := buf.String()
		if field := `"decode_speedup": null`; strings.Contains(js, field) != wantNull {
			t.Errorf("-j%d: JSON contains %s: %v, want %v", workers, field, !wantNull, wantNull)
		}
		if !strings.Contains(RenderBuildBench(rows), "antlr") {
			t.Errorf("-j%d: render missing the row", workers)
		}
	}
}
