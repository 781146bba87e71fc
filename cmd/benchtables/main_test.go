package main

import (
	"strings"
	"testing"
)

func TestRunSingleTable(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-table", "2", "-scale", "0.002", "-presets", "antlr"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "Table 2") || !strings.Contains(out, "antlr") {
		t.Fatalf("unexpected output:\n%s", out)
	}
	if strings.Contains(out, "Figure 1") {
		t.Fatal("-table 2 also ran figure 1")
	}
}

func TestRunAll(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	var sb strings.Builder
	if err := run([]string{"-scale", "0.002", "-presets", "antlr"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"Table 2", "Figure 1", "Table 7", "Table 8", "Figure 7", "Ablations"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestRunAndersTable(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-table", "anders", "-presets", "anders-base"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "Anders bench") || !strings.Contains(out, "anders-base") {
		t.Fatalf("unexpected output:\n%s", out)
	}
}

func TestRunAllSkipsAndersBench(t *testing.T) {
	var sb strings.Builder
	// Restricting to one tiny preset keeps "all" fast; the engine bench
	// must not run unless named explicitly.
	if err := run([]string{"-table", "2", "-scale", "0.002", "-presets", "antlr"}, &sb); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "Anders bench") {
		t.Fatal("-table 2 also ran the anders bench")
	}
}

func TestRunUnknownTable(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-table", "nope"}, &sb); err == nil {
		t.Fatal("accepted unknown table")
	}
}

func TestRunBadFlags(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-bogus"}, &sb); err == nil {
		t.Fatal("accepted unknown flag")
	}
}
