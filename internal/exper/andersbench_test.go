package exper

import (
	"bytes"
	"encoding/json"
	"runtime"
	"strings"
	"testing"
)

// TestAndersBench: one row per preset with its dimensions, timings and
// identity checks; every row records the host it ran on, and the parallel
// speedup is null exactly when the run had fewer cores than workers, in
// the row, in the text table and in the JSON written to BENCH_anders.json.
func TestAndersBench(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	for _, workers := range []int{1, procs + 1} {
		rows := AndersBench(&Options{Presets: []string{"anders-base"}, Workers: workers})
		if len(rows) != 1 {
			t.Fatalf("-j%d: expected 1 row, got %d", workers, len(rows))
		}
		r := rows[0]
		if r.Name != "anders-base" || r.Workers != workers {
			t.Fatalf("bad row identity: %+v", r)
		}
		if !r.MatrixIdentical {
			t.Fatal("matrix identity check failed")
		}
		if r.Constraints == 0 || r.Vars == 0 || r.MatrixFacts == 0 {
			t.Fatalf("empty dimensions: %+v", r)
		}
		if r.SolveSerialNS <= 0 || r.SolveParallelNS <= 0 {
			t.Fatalf("missing timings: %+v", r)
		}
		if r.ConstraintsPerSec <= 0 {
			t.Fatalf("missing throughput: %+v", r)
		}
		if r.Gomaxprocs != procs || r.NumCPU < 1 || r.GoVersion != runtime.Version() {
			t.Fatalf("-j%d: host facts not set: %+v", workers, r)
		}
		wantNull := procs < workers
		if (r.ParallelSpeedup == nil) != wantNull {
			t.Fatalf("-j%d on GOMAXPROCS=%d: parallel speedup null = %v, want %v",
				workers, procs, r.ParallelSpeedup == nil, wantNull)
		}

		text := RenderAndersBench(rows)
		if !strings.Contains(text, "anders-base") || !strings.Contains(text, "identical") {
			t.Fatalf("render missing fields:\n%s", text)
		}
		if strings.Contains(text, " - |") != wantNull {
			t.Errorf("-j%d: text table prints a null speedup as -: %v, want %v\n%s",
				workers, !wantNull, wantNull, text)
		}

		var buf bytes.Buffer
		if err := WriteAndersBenchJSON(&buf, rows); err != nil {
			t.Fatal(err)
		}
		js := buf.String()
		if strings.Contains(js, `"parallel_speedup": null`) != wantNull {
			t.Errorf("-j%d: JSON has a null parallel_speedup: %v, want %v", workers, !wantNull, wantNull)
		}
		for _, field := range []string{`"num_cpu": `, `"go_version": `} {
			if !strings.Contains(js, field) {
				t.Errorf("-j%d: JSON lacks %s", workers, field)
			}
		}
		var back []AndersBenchRow
		if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
			t.Fatal(err)
		}
		if len(back) != 1 || back[0].Name != "anders-base" || !back[0].MatrixIdentical ||
			back[0].GoVersion != r.GoVersion || (back[0].ParallelSpeedup == nil) != wantNull {
			t.Fatalf("JSON round-trip mismatch: %+v", back)
		}
	}
}

// TestAndersBenchPresetFallback: matrix-preset names (or junk) select
// nothing, so the engine bench falls back to every program preset rather
// than silently running an empty experiment.
func TestAndersBenchPresetFallback(t *testing.T) {
	got := andersPresets(&Options{Presets: []string{"antlr"}})
	if len(got) == 0 {
		t.Fatal("fallback selected no presets")
	}
	if one := andersPresets(&Options{Presets: []string{"anders-web"}}); len(one) != 1 || one[0].Name != "anders-web" {
		t.Fatalf("explicit selection failed: %+v", one)
	}
}
