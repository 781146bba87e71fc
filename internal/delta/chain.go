package delta

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Segments live next to their base file under a stamp-bearing name:
// base "web.pes" grows the chain "web.d000001.pesd", "web.d000002.pesd", …
// Discovery globs that pattern and orders by stamp; chain validity (parent
// links, dimension monotonicity, base hint) is checked when the files are
// read. Like PES2 files, segments are immutable once written: publish by
// writing to a temporary name and renaming into place.

// SegmentPath returns the conventional path for the segment with stamp gen
// alongside basePath.
func SegmentPath(basePath string, gen uint64) string {
	return fmt.Sprintf("%s.d%06d.pesd", stem(basePath), gen)
}

func stem(basePath string) string {
	if ext := filepath.Ext(basePath); ext != "" && ext != basePath {
		return strings.TrimSuffix(basePath, ext)
	}
	return basePath
}

// HintOf folds a full SHA-256 file sum down to the 8-byte base hint stored
// in segment headers.
func HintOf(sum [sha256.Size]byte) uint64 {
	return binary.LittleEndian.Uint64(sum[:8])
}

// FileHint hashes the file at path and returns its base hint.
func FileHint(path string) (uint64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	return HintOf(sha256.Sum256(data)), nil
}

// Chain is the result of discovering and reading the delta segments next
// to a base file. Segs holds the longest valid prefix of the on-disk chain
// (of its part past the head BuildChain was given); Broken describes why
// discovery stopped early (a corrupt file, a parent-link gap, a stale base
// hint), or is empty when the whole chain was consumed.
type Chain struct {
	Base   string
	Hint   uint64 // base hint of the base file at Base
	Paths  []string
	Segs   []*Segment
	Broken string
}

// Head returns the stamp of the last segment, or the base generation
// (the first segment's parent) when the chain is empty — 0 for a base
// that was never compacted from a chain.
func (c *Chain) Head() uint64 {
	if len(c.Segs) > 0 {
		return c.Segs[len(c.Segs)-1].Gen
	}
	return 0
}

// Discover lists the segment paths next to basePath whose name stamp is
// past after, ordered by that stamp. It only inspects names; the files are
// not opened.
func Discover(basePath string, after uint64) ([]string, error) {
	matches, err := filepath.Glob(stem(basePath) + ".d*.pesd")
	if err != nil {
		return nil, err
	}
	type cand struct {
		gen  uint64
		path string
	}
	var cands []cand
	prefix := stem(basePath) + ".d"
	for _, m := range matches {
		digits := strings.TrimSuffix(strings.TrimPrefix(m, prefix), ".pesd")
		gen, err := strconv.ParseUint(digits, 10, 64)
		if err != nil || gen <= after {
			continue // not a stamp-bearing name (stamps start at 1), or not past after
		}
		cands = append(cands, cand{gen, m})
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].gen < cands[j].gen })
	paths := make([]string, len(cands))
	for i, c := range cands {
		paths[i] = c.path
	}
	return paths, nil
}

// LoadChain discovers and reads the delta chain next to basePath,
// returning the longest valid prefix. The base file itself is hashed to
// verify segment base hints; it is not decoded. An error is returned only
// when the base file cannot be read — a malformed or mismatched segment
// merely terminates the chain (recorded in Broken), so a stray or stale
// .pesd file can never take down queries against the base.
func LoadChain(basePath string) (*Chain, error) {
	hint, err := FileHint(basePath)
	if err != nil {
		return nil, err
	}
	return BuildChain(basePath, hint, 0)
}

// BuildChain is LoadChain for a caller that already hashed the base file
// (internal/store hashes every image it loads anyway) and already serves
// the chain through generation head: segments whose name stamp is at or
// below head are never opened, so a poll that finds nothing new reads no
// segment. Whether the first segment read chains onto head is the
// caller's check (head 0 reads the whole chain, whose first segment names
// the base generation).
func BuildChain(basePath string, hint, head uint64) (*Chain, error) {
	paths, err := Discover(basePath, head)
	if err != nil {
		return nil, err
	}
	c := &Chain{Base: basePath, Hint: hint}
	prevGen := uint64(0)
	for i, p := range paths {
		seg, err := ReadSegmentFile(p)
		if err != nil {
			c.Broken = fmt.Sprintf("%s: %v", filepath.Base(p), err)
			break
		}
		if seg.BaseHint != 0 && seg.BaseHint != hint {
			c.Broken = fmt.Sprintf("%s: base hint %016x does not match base file %016x (stale chain?)",
				filepath.Base(p), seg.BaseHint, hint)
			break
		}
		if i > 0 && seg.Parent != prevGen {
			c.Broken = fmt.Sprintf("%s: parent stamp %d does not chain onto %d",
				filepath.Base(p), seg.Parent, prevGen)
			break
		}
		if i > 0 {
			last := c.Segs[len(c.Segs)-1]
			if seg.NumPointers < last.NumPointers || seg.NumObjects < last.NumObjects {
				c.Broken = fmt.Sprintf("%s: dimensions shrink along the chain", filepath.Base(p))
				break
			}
		}
		prevGen = seg.Gen
		c.Segs = append(c.Segs, seg)
		c.Paths = append(c.Paths, p)
	}
	return c, nil
}
