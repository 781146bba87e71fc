package anders

import (
	"testing"

	"pestrie/internal/ir"
)

func benchProgram() *ir.Program {
	return ir.Generate(ir.GenOptions{Funcs: 20, VarsPerFunc: 6, StmtsPerFunc: 15, Seed: 11})
}

func BenchmarkAnalyzeInsensitive(b *testing.B) {
	prog := benchProgram()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Analyze(prog, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAnalyzeCloneDepth1(b *testing.B) {
	// Call-site cloning grows the program multiplicatively per depth
	// level, so the bench uses depth 1; deeper contexts are exercised by
	// the unit tests on small programs.
	prog := benchProgram()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Analyze(prog, &Options{CloneDepth: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolvePreset measures the engine on the named program presets;
// `benchtables -table anders` reports the same solves with derived
// metrics.
func BenchmarkSolvePreset(b *testing.B) {
	for _, name := range []string{"anders-base", "anders-chain", "anders-web"} {
		prog := presetProgram(b, name)
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Analyze(prog, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
