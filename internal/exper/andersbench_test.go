package exper

import (
	"bytes"
	"encoding/json"
	"runtime"
	"strings"
	"testing"
)

// TestAndersBench: one row per preset with its dimensions and timings;
// every row records the host it ran on, in the row, in the text table and
// in the JSON written to BENCH_anders.json.
func TestAndersBench(t *testing.T) {
	rows := AndersBench(&Options{Presets: []string{"anders-base"}})
	if len(rows) != 1 {
		t.Fatalf("expected 1 row, got %d", len(rows))
	}
	r := rows[0]
	if r.Name != "anders-base" {
		t.Fatalf("bad row identity: %+v", r)
	}
	if r.Constraints == 0 || r.Vars == 0 || r.MatrixFacts == 0 {
		t.Fatalf("empty dimensions: %+v", r)
	}
	if r.SolveNS <= 0 || r.ConstraintsPerSec <= 0 {
		t.Fatalf("missing timing or throughput: %+v", r)
	}
	if r.Gomaxprocs != runtime.GOMAXPROCS(0) || r.NumCPU < 1 || r.GoVersion != runtime.Version() {
		t.Fatalf("host facts not set: %+v", r)
	}

	text := RenderAndersBench(rows)
	if !strings.Contains(text, "anders-base") || !strings.Contains(text, "cons/s") {
		t.Fatalf("render missing fields:\n%s", text)
	}

	var buf bytes.Buffer
	if err := WriteAndersBenchJSON(&buf, rows); err != nil {
		t.Fatal(err)
	}
	js := buf.String()
	for _, field := range []string{`"solve_ns": `, `"num_cpu": `, `"go_version": `} {
		if !strings.Contains(js, field) {
			t.Errorf("JSON lacks %s", field)
		}
	}
	var back []AndersBenchRow
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if len(back) != 1 || back[0] != r {
		t.Fatalf("JSON round-trip mismatch: %+v", back)
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
