package ir

// ProgPreset names a Generate configuration. Where synth presets model
// the *matrices* of Table 2, program presets model the *constraint
// systems* the Andersen engine solves to produce such matrices: the small
// historical shape plus scaled-up variants stressing the engine's two
// stages (deep chains for cycle collapsing and levelized propagation,
// dense dereference webs for online edge insertion, and a large combined
// workload).
type ProgPreset struct {
	Name string
	Desc string
	Opts GenOptions
}

// ProgPresets are the named program-generation configurations.
var ProgPresets = []ProgPreset{
	{
		Name: "anders-base",
		Desc: "historical small shape (the pre-scaling benchmark program)",
		Opts: GenOptions{Funcs: 20, VarsPerFunc: 6, StmtsPerFunc: 15, Seed: 11},
	},
	{
		Name: "anders-chain",
		Desc: "deep call/copy chains: 64-deep deterministic chain under a mid-size random program",
		Opts: GenOptions{Funcs: 60, VarsPerFunc: 8, StmtsPerFunc: 25, Seed: 23, ChainDepth: 64},
	},
	{
		Name: "anders-web",
		Desc: "dense load/store web: dereferences 4x likelier than other statements",
		Opts: GenOptions{Funcs: 80, VarsPerFunc: 10, StmtsPerFunc: 30, Seed: 37, LoadStoreWeight: 4},
	},
	{
		Name: "anders-large",
		Desc: "combined large workload: ~40x the base statement count, 128-deep chain, 2x dereference weight",
		Opts: GenOptions{Funcs: 400, VarsPerFunc: 10, StmtsPerFunc: 40, Seed: 41, ChainDepth: 128, LoadStoreWeight: 2},
	},
}

// ProgPresetByName returns the program preset with the given name, or nil.
func ProgPresetByName(name string) *ProgPreset {
	for i := range ProgPresets {
		if ProgPresets[i].Name == name {
			return &ProgPresets[i]
		}
	}
	return nil
}
