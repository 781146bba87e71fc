package core_test

import (
	"slices"
	"strconv"
	"testing"

	"pestrie/internal/core"
	"pestrie/internal/synth"
)

// formatIDs is the per-answer formatting the Append methods replace: each
// ID of a List result through strconv, into a buffer sized from the
// largest ID.
func formatIDs(ids []int) []byte {
	if ids == nil {
		return []byte("null")
	}
	if len(ids) == 0 {
		return []byte("[]")
	}
	width := 1
	for hi := slices.Max(ids); hi >= 10; hi /= 10 {
		width++
	}
	b := make([]byte, 0, 1+len(ids)*(width+1))
	b = append(b, '[')
	for i, id := range ids {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(id), 10)
	}
	return append(b, ']')
}

var encodedSink []byte

// BenchmarkListEncoding times each list query's answer as bytes both ways
// over fop at scale 0.02 (about 23k pointers), on every 7th pointer or
// object: "format" is the List method plus formatIDs, "append" is the
// Append method into an unsized buffer. The text table is built before
// timing starts. bytes/op is the mean answer size.
func BenchmarkListEncoding(b *testing.B) {
	ix := core.Build(synth.PresetByName("fop").Generate(0.02), nil).Index()
	ix.BuildIDText()
	var ptrs, objs []int
	for p := 0; p < ix.NumPointers; p += 7 {
		ptrs = append(ptrs, p)
	}
	for o := 0; o < ix.NumObjects; o += 7 {
		objs = append(objs, o)
	}
	for _, c := range []struct {
		op     string
		ids    []int
		list   func(int) []int
		append func([]byte, int) []byte
	}{
		{"aliases", ptrs, ix.ListAliases, ix.AppendAliases},
		{"pointsto", ptrs, ix.ListPointsTo, ix.AppendPointsTo},
		{"pointedby", objs, ix.ListPointedBy, ix.AppendPointedBy},
	} {
		run := func(b *testing.B, encode func(int) []byte) {
			n := 0
			for i := 0; i < b.N; i++ {
				encodedSink = encode(c.ids[i%len(c.ids)])
				n += len(encodedSink)
			}
			b.ReportMetric(float64(n)/float64(b.N), "bytes/op")
		}
		b.Run(c.op+"/format", func(b *testing.B) {
			run(b, func(id int) []byte { return formatIDs(c.list(id)) })
		})
		b.Run(c.op+"/append", func(b *testing.B) {
			run(b, func(id int) []byte { return c.append(nil, id) })
		})
	}
}
