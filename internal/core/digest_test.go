package core_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"pestrie/internal/core"
	"pestrie/internal/matrix"
	"pestrie/internal/synth"
)

// presetDigests holds one preset's sha256 digests under the three option
// sets that change what the rectangle stage emits: the defaults, pruning
// off, and object merging.
type presetDigests struct {
	preset                  string
	plain, unpruned, merged string
}

// buildDigests pins the PES1 bytes Build writes for every Table 2 preset
// at scale 0.005. A rewrite of any build stage must leave these unchanged;
// a deliberate output change has to say so by editing them. The package
// is external because internal/synth reaches core through internal/delta.
var buildDigests = []presetDigests{
	{"samba",
		"402c7bddc85bad6afc8524f998fb3fc35761744cbf4ea8793944a9f92555b04e",
		"d3aa13c7155b22c8554a28859bda08e46f1b72d2e61afb0f5ab3e0d2ad2b7a3e",
		"aaffbc56430f102d0e4ec86c72c3eda9d87052b0bee84a10c62bdacff5b93dad"},
	{"gs",
		"f9ed457733f3d36faf0171e4e54eb226e78dfd3c80ee154cc335e716af8925f5",
		"6860509c5dcbdfbe65d75cbf8ff4d54b4915e20188c8bdc88bae6d748cf5628a",
		"5094919069f92eced6e15f36974b70a86aedbb15eded26e5d608504cd594507c"},
	{"php",
		"7d401214e67748fdb6933aee3ff8bacc9b1310104cfb4eca2dfe29331e9c7e90",
		"7ff9ea7c8d4d888f64ab775d248298e380471005a53550f98b8d9ce83beb2315",
		"1ee2b8ff4db1e6137634e405d5537a8fc412cc57144ff647d9549a2b258e7ef5"},
	{"postgreSQL",
		"b435c5d0665f1c223c2aa51a1c5e166a7497e3d9f0b77c0e9803f246639dbdc6",
		"0fdc38d2ac8086794673316e560d471534d886440b451adbe5d7112ec22eeda4",
		"cbc798f4a445f3dfb5fa212728a8d786bb6124e0a1515c14a09179bec6892a4f"},
	{"antlr",
		"65887b2dd02a0fc56cd26cabc6959c17b5b822cf310c7d92a7e308762e5ec2be",
		"eaa027a835e44014f081ccfc5471cf60af7d3c38b0ca2a015d4e7fd1de3780b3",
		"7ffc86babaaf8fea9a1e6e24ad43aca4ada8ffff020f7b28af08669044b0e7ba"},
	{"luindex",
		"fc04d0581329a12dfc47f388028584cefefacc119fa64d5e62cd5fbc95972478",
		"17722fc9b9393a6f2dbf0f4b77d224184c597e1b899b065bd819d55146e63bc9",
		"c0930e90824257be0f08697078a11a6754aea1ed95bfd6ae852a23cbf0b0a7e6"},
	{"bloat",
		"3e4567ad3e825698351aba67720f4a839d7270c102c326e08275cd58a08104b0",
		"8dbfcb50be9d543cba2c03ccd02f9ada82d41507a65080bb1e0a9faa3b445131",
		"257e70d374736ce421bf5a197e511458ad55b3fad1adb37e90365f11da057ee1"},
	{"chart",
		"c28492f383f638776d0e13f7e1d751687fa1f122ce14f9e1fabed0f069e588cc",
		"7e10d773cd33516f1ddc4fef72bf360eb37b8d7ea461a1389541dc2d496f54df",
		"77575af8f426c90867857f8002a21152b477d7b557fa7b95db9446bf7a40f76d"},
	{"batik",
		"51c96df64e045a961cf0aba8368bdf5e10c830b6991c88e9812de84971633aa7",
		"b296e24ebb08069c7ec0570f30302a2d3cec7b4f86c6bc4742f4cab87b58d2dc",
		"7c78e582c1705bcdf237d35eb59f26ed5716b9f368fb908295b2f1aa28786775"},
	{"sunflow",
		"f3cc949f3e5125303e982c872fb14014c3f4597a4a65c4be71f45483d78597af",
		"ca5a7b1c6c18c0661a72e40d671b46a70cf5ec913f7ca3092eaacfc9f990441c",
		"d26498d8c290347af3033745a04ad1eac696e80a1969a533a2ea64e5d4ed1ee1"},
	{"tomcat",
		"d9315f53a049c53d650b51e094476f7a4ddc6e55c51148b956f04b97f02be74b",
		"4ac3220af73c81b1d3d166816a5637114b6cb8978570fcdccf5cda5b3aa85af6",
		"10ccd8104fca2d3130814a9ab3e51a05041d4a85cf25f29e8d9c3f07278b5ae4"},
	{"fop",
		"ca3ed5fb8cd36975b3c037125f61fd35181c5f32f45ce3d169088c135875b7c2",
		"ca6c04db22ea122829039a9a2037a472ed1ce862ae6f252906e62f54e29ceb86",
		"05d7a384ff5a09bd88dff50dcc389322919e52075c5ad28a2c1b9a8bdb0b316e"},
}

// decodeDigests pins the index Load decodes from those PES1 files, taken
// as its PES2 image: column order, dedup and every other decode stage.
// Pruning-off files are the ones whose columns hold nested ranges, so only
// they exercise the tie-breaks of the column order.
var decodeDigests = []presetDigests{
	{"samba",
		"702ae49ec9dcbdff16e659e439d41bf4707711bc5ad8b46dfa8daf8c2454c0e3",
		"9d1e6c22edc4329465a665cb9ec41f3022d401bacd826f6508049e3cb76cff32",
		"e8b474f81ed7853ee8b7d0c29166cde12672400aad0916b0582989c279dc3cf0"},
	{"gs",
		"3bda2848cfda202fd154a6c368c50138fbdc378d546666a660af5a4365a327bf",
		"089798c8d63cc1999efa81dbb3b7cec473de28de0e1e9811439402cb4bb0c153",
		"07c06f6ed4510e456674f2e9eb5b625376bc80662496d1139e181834b2bfc52e"},
	{"php",
		"070a2a9a084a68b603df9e7c235add667a10a807b80a2657b56d1b974314688a",
		"b3fbf600c72d66dd7afee32489014dd3ff00112ec524c95ce1aef7d5d7f2d77e",
		"5d64a8ce81e79cdf42706c4a50c7796301b907b919659fcbbe2a71981ae5ccfe"},
	{"postgreSQL",
		"bafcb994864a957d23c4b9858b24a95a7f9f127d1def705ef3a061f695bbb445",
		"281cb22eaad1b64e053860414f62624375e9f616c6f7949f6b41943d80667b1c",
		"23cc5fd1211cc7e22f64ad6f7abf1082910b2b1a31f833bd3185c9f35d4ae0da"},
	{"antlr",
		"e86e5a95bbfdb6eaac287837261e9393d1bf570e1f638bc5dc51353ba7c83a7a",
		"be09a7a6d54c1527e1ca37198987c07d36df53f9ed425f57db697a1c5afff81c",
		"fda3a2758724218a693adb2ad42660b58046318843833fa217fc811c86d59afa"},
	{"luindex",
		"0a889b22397ddadc2a2800400b275cf9dfdb6e679072b54f8f3c04ff81e5eed9",
		"f59af342bfbcc761db5afaf391d13dfb100aa024c8463b8a8fd69037b6b053fb",
		"9927c86f1eb6c5f58f3e8ce490bb1c2a231c6857876866203ec00d7bd4294e7f"},
	{"bloat",
		"fec5c1e68435292f857eb422b6b08b876b80eb4efd53ded317af83d35377da39",
		"a748b14bf3b4a14d5f94cc5324652f681dee5a833a44f00e0a61f5c9b1eb281e",
		"465b15bae3bae51b197c36f10e0afad058dcca369f9f29529e793c73ef5243c2"},
	{"chart",
		"c0384577fd10252638c9fe6fed0073aa4146e7c70168c739a2800c2b4d68ba5d",
		"3894c54c37f6c9f1f18b0b0504efdb1a41644f739f70c646a416a22a1e868989",
		"ab16c082cd45974b5a84077f6bff8956078a776204f7d315636336ef8d272857"},
	{"batik",
		"79e315ada6a359037aabce7ed15f385059448b31b0640caef09dbe1de22a0cae",
		"5cb8f0eb3a9e95ed0a99c481cc4acd29ce578eb84a04851f1f3dd202d063f683",
		"cd2a06e0f2e6f731a3eaee2903d24159e308e2bd98b9cb261d2185d7dd9aae0e"},
	{"sunflow",
		"e724b570aad33955cd9c1633b47b915ec72b201d090ec92b636fb1a8105a08c1",
		"0374f88d9530141635064484fe9f8abd2793b6f543679b95087884db01ffbd20",
		"c61c6e2c38c3536c7138e68de1bf7a9cda2ee81f75f9a2900bea8a6c1e4dfd77"},
	{"tomcat",
		"d2a4083436a155103173c068636413c787940b7a77e0980bc26323310ab83f11",
		"ece9c5c76f4fc44b098f559cfca4272ca474ca5433add7bf460af0898ea4d72e",
		"1027bef23c8188bf1d4e4e574b59c926dc18a09b283f5d874097e6e03960ac1e"},
	{"fop",
		"4bc8b738e517e975a96338853b3320dab2fea6d2c3943be5b4de731486074ce0",
		"ff556197d3b9ad2e94c28f516636066e2918d612e821fb08f5341fd0f875cb85",
		"42804e80904c42abcb055dbacd9b583a4deed9849209efdb523f7afa306be229"},
}

// largeBuildDigests pins default-options builds above the 0.005 table's
// scale: fop at 0.05 is the largest preset at the scale of
// BENCH_build.json and of the CI encode gate, and its rectangle stage
// weighs ~4.2M candidates.
var largeBuildDigests = []struct {
	preset string
	scale  float64
	plain  string
}{
	{"fop", 0.05, "24e4d58793d0c59c85aa3a2eb135ec7b5e105d075938cfa8cd6f223cfa426ad3"},
}

func TestBuildDigests(t *testing.T) {
	checkDigests(t, buildDigests, identity)
	for _, want := range largeBuildDigests {
		pm := synth.PresetByName(want.preset).Generate(want.scale)
		if got := digest(t, pm, nil, identity); got != want.plain {
			t.Errorf("%s at scale %v: sha256 %s, want %s", want.preset, want.scale, got, want.plain)
		}
	}
}

func TestDecodeDigests(t *testing.T) {
	checkDigests(t, decodeDigests, func(pes1 []byte) []byte {
		ix, err := core.Load(bytes.NewReader(pes1))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := ix.WriteToV2(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	})
}

// checkDigests builds every pinned preset under each option set, persists
// it as PES1, and compares the sha256 of output(PES1 bytes) to the table.
func checkDigests(t *testing.T, table []presetDigests, output func(pes1 []byte) []byte) {
	t.Helper()
	if len(table) != len(synth.Presets) {
		t.Errorf("%d pinned presets, want all %d", len(table), len(synth.Presets))
	}
	for _, want := range table {
		p := synth.PresetByName(want.preset)
		if p == nil {
			t.Fatalf("unknown preset %q", want.preset)
		}
		pm := p.Generate(0.005)
		for _, c := range []struct {
			opts *core.Options
			want string
		}{
			{nil, want.plain},
			{&core.Options{DisablePruning: true}, want.unpruned},
			{&core.Options{MergeEquivalentObjects: true}, want.merged},
		} {
			if got := digest(t, pm, c.opts, output); got != c.want {
				t.Errorf("%s %+v: sha256 %s, want %s", want.preset, c.opts, got, c.want)
			}
		}
	}
}

func identity(pes1 []byte) []byte { return pes1 }

// digest builds pm with opts, persists it as PES1, and returns the hex
// sha256 of output(PES1 bytes).
func digest(t *testing.T, pm *matrix.PointsTo, opts *core.Options, output func(pes1 []byte) []byte) string {
	t.Helper()
	var buf bytes.Buffer
	if _, err := core.Build(pm, opts).WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(output(buf.Bytes()))
	return hex.EncodeToString(sum[:])
}
