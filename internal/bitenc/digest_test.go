package bitenc_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"pestrie/internal/bitenc"
	"pestrie/internal/synth"
)

// presetPins holds, for every Table 2 preset at the default 1% scale, the
// sha256 of its BIT1 file and the MemoryFootprint of the loaded encoding.
// The footprint counts 40 bytes per linked 128-bit block, so it pins BitP
// to the GCC-style linked bitmap of the paper (§7): rows on a flat set
// report roughly half these figures. The file bytes do not depend on the
// row structure at all.
var presetPins = []struct {
	preset    string
	sha256    string
	footprint int64
}{
	{"samba", "25773de9ed959a3f163553c54c6a0fc8d557403dde98a7f9fea7ec0ff3f42dfa", 1213464},
	{"gs", "731f19520b66db942c2d55dd9b91985b25f27b600fa46ca502c6e57b14668d9c", 701104},
	{"php", "5724b21e3928f1791f372bcd73548e93ebcee1ddc6b96c85e5fc85bb44e0658f", 668488},
	{"postgreSQL", "c2d24818562e27f564abf701133ec3ae0a2716ee7c3d810c913edde35973ba1f", 540864},
	{"antlr", "727fbf17fa2de0a2a5afb28b8aa5bdb223cf949555b49136c66f79b7a248a36a", 337976},
	{"luindex", "21276f01e2a7a364df48c3ca7244414965e38e20a20fb31d718fdcbcb0f04c75", 285560},
	{"bloat", "03341ff41dbe3c476792ed8a0607ea5b5736e82194f6622e25e795bedaad4dc0", 1016336},
	{"chart", "b4649329ad3ca8e0e24bbb381b4323581da4d1a726f7a4b6b70fe921f14d09ed", 1869680},
	{"batik", "4465394f46bf51c9cf66d2b3d6ed01dc2028afd76be0924e35840c59b8a61ce0", 1545792},
	{"sunflow", "9848b0ddc6a7868d62228547dec1fad0d6fce55b906d94d9557c7d4e59a2cb43", 902528},
	{"tomcat", "b9cec009f2bc802d17ce7d5f8e85c087adbc6f1102873e59ef626e2d5ae1f1a8", 1174176},
	{"fop", "657fe998397bf35e021fb9072eb22afdb916d303e99092d156ae1bc3c65dc73c", 3017904},
}

// TestPresetPins encodes, writes and reloads BitP for every preset and
// checks the file digest and the loaded footprint against presetPins.
func TestPresetPins(t *testing.T) {
	if len(presetPins) != len(synth.Presets) {
		t.Fatalf("%d pins for %d presets", len(presetPins), len(synth.Presets))
	}
	for _, pin := range presetPins {
		pm := synth.PresetByName(pin.preset).Generate(synth.DefaultScale)
		var file bytes.Buffer
		if _, err := bitenc.Encode(pm).WriteTo(&file); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(file.Bytes())
		if got := hex.EncodeToString(sum[:]); got != pin.sha256 {
			t.Errorf("%s: BIT1 sha256 %s, want %s", pin.preset, got, pin.sha256)
		}
		e, err := bitenc.Load(&file)
		if err != nil {
			t.Fatalf("%s: %v", pin.preset, err)
		}
		if got := e.MemoryFootprint(); got != pin.footprint {
			t.Errorf("%s: loaded MemoryFootprint %d, want %d", pin.preset, got, pin.footprint)
		}
	}
}
