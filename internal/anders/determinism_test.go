package anders

import (
	"slices"
	"testing"

	"pestrie/internal/ir"
)

// The engine guarantees that its output — matrix and name tables — is a
// pure function of the input program: identical across repeated runs.
// These tests pin that guarantee on presets that exercise deep chains and
// dense dereference webs; TestSolveDigests pins the bytes themselves.

func presetProgram(t testing.TB, name string) *ir.Program {
	t.Helper()
	p := ir.ProgPresetByName(name)
	if p == nil {
		t.Fatalf("unknown program preset %q", name)
	}
	return ir.Generate(p.Opts)
}

func mustAnalyze(t testing.TB, prog *ir.Program, o Options) *Result {
	t.Helper()
	res, err := Analyze(prog, &o)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func requireSameResult(t *testing.T, a, b *Result, what string) {
	t.Helper()
	if !slices.Equal(a.PointerNames, b.PointerNames) {
		t.Fatalf("%s: pointer name tables differ", what)
	}
	if !slices.Equal(a.ObjectNames, b.ObjectNames) {
		t.Fatalf("%s: object name tables differ", what)
	}
	if !a.PM.Equal(b.PM) {
		t.Fatalf("%s: points-to matrices differ", what)
	}
}

func TestRepeatedRunsIdentical(t *testing.T) {
	for _, name := range []string{"anders-base", "anders-chain"} {
		prog := presetProgram(t, name)
		for _, o := range []Options{{}, {CloneDepth: 1}} {
			a := mustAnalyze(t, prog, o)
			b := mustAnalyze(t, prog, o)
			requireSameResult(t, a, b, name)
		}
	}
}

// TestEngineStagesEngage checks cycle collapsing actually fires on the
// workload built to stress it — a preset regression here would quietly
// turn the scaling benchmarks into no-ops.
func TestEngineStagesEngage(t *testing.T) {
	prog := presetProgram(t, "anders-chain")
	st := mustAnalyze(t, prog, Options{}).Stats
	if st.CycleMerged == 0 {
		t.Error("cycle collapsing merged nothing on the chain preset")
	}
	if st.Rounds < 2 {
		t.Errorf("suspiciously few rounds: %d", st.Rounds)
	}
	if st.Constraints == 0 || st.Vars == 0 || st.Objects == 0 {
		t.Errorf("empty stats: %+v", st)
	}
}
