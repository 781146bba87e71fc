// Package store manages the lifecycle of decoded Pestrie indexes so one
// process can front many more .pes files than fit in memory at once. The
// paper's Table 7 makes decoding a persistent file orders of magnitude
// cheaper than re-running the analysis; this package treats that as a
// license to unload: indexes are decoded lazily on first query, kept in an
// LRU sized by Index.MemoryFootprint against a configurable byte budget,
// and dropped under pressure — the next query just pays the (cheap) decode
// again.
//
// A Store is a catalog of backend name → .pes path (explicit Add calls or
// AddDir directory scans), plus resident entries registered with AddIndex
// from an index already in memory. Acquire pins a decoded generation for the
// duration of a query; concurrent first loads of the same entry are
// deduplicated (singleflight, sharing the outcome — success or error —
// with every waiter), and pinned generations are never freed by
// eviction. Refresh (or the background reloader started by
// Options.ReloadInterval) re-hashes files and hot-swaps changed ones: the
// new generation is decoded off to the side and installed with a single
// pointer swap, so in-flight queries keep their pinned old generation and
// new queries atomically see the new one — no restart, no half-swapped
// state.
//
// Zero-copy PES2 files are not decoded at all: Acquire memory-maps them
// and serves queries straight off the mapping. The budget charge for a
// mapped generation is the file size, and eviction (or the last Release of
// a retired generation) unmaps it. A mapping pins the file's inode, so
// anything rewriting a mapped .pes must replace it by rename — truncating
// in place would fault readers.
package store

import (
	"bytes"
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pestrie/internal/core"
	"pestrie/internal/delta"
	"pestrie/internal/perf"
	"pestrie/internal/safeio"
)

// ErrUnknown reports an Acquire for a name that is not in the catalog.
var ErrUnknown = errors.New("store: unknown backend")

// ErrDuplicate reports an Add of a backend name already in the catalog.
// Callers that tolerate re-registration (directory rescans) match it with
// errors.Is.
var ErrDuplicate = errors.New("store: duplicate backend")

// Options configure a Store.
type Options struct {
	// MemBudget caps the total MemoryFootprint of decoded generations in
	// bytes. Zero or negative means unlimited. The budget is enforced
	// best-effort: generations pinned by in-flight queries are never
	// freed, so the total can transiently exceed the budget when the
	// working set is pinned; it drops back as handles are released.
	MemBudget int64

	// ReloadInterval, when positive, starts a background goroutine that
	// calls Refresh at this period, picking up rewritten files (hot-swap)
	// and new files in scanned directories. Zero disables it; Refresh can
	// still be called explicitly.
	ReloadInterval time.Duration
}

// Spec names one catalog entry.
type Spec struct {
	Name string
	Path string
}

// generation is one decoded (or mapped) image of an entry's file plus the
// delta chain applied over it. Immutable after construction except for the
// refcount bookkeeping, which Store.mu guards.
type generation struct {
	// sn is the query surface, the base with the chain applied. It holds
	// one reference on the base: successive delta-extended generations
	// share one decoded base, so retiring the old generation never unmaps
	// a base the new one still serves, and frees the old overlay.
	sn    *delta.Snapshot
	sum   [sha256.Size]byte // SHA-256 of the base file image
	bytes int64
	tag   string // Handle.VersionTag, computed once per generation

	// guarded by Store.mu:
	refs    int  // in-flight handles pinning this generation
	retired bool // no longer the entry's current generation
}

// free releases the generation's backing store — for the last generation
// sharing a base, that closes the base (munmap for mapped PES2 files).
// Snapshot.Close is idempotent, so converging free paths (evict vs. last
// release) are harmless.
func (g *generation) free() { _ = g.sn.Close() }

// fileTag is the version tag of a generation loaded from a file:
// "<hash>@<stamp>", a truncated content hash of the base file plus the
// delta-chain head stamp. Two generations share a tag iff they serve the
// same base bytes at the same stamp (published segments are never
// rewritten), so a hot swap changes the tag, a delta apply changes the
// stamp, and an evict-then-reload of an unchanged file keeps it. 64 bits
// of SHA-256 is plenty for a namespace that only ever holds a handful of
// live tags.
func fileTag(sum [sha256.Size]byte, stamp uint64) string {
	return hex.EncodeToString(sum[:8]) + "@" + strconv.FormatUint(stamp, 10)
}

// residentTag is the version tag of a resident entry. Its name is bound to
// one index for the life of the store, so the tag needs no content hash;
// the structural dimensions keep it the same for every process serving the
// same index, and the "s:" prefix keeps it apart from file tags.
func residentTag(ix *core.Index) string {
	return fmt.Sprintf("s:%d.%d.%d.%d", ix.NumPointers, ix.NumObjects, ix.NumGroups, ix.Rectangles())
}

// dims is the last-known shape of an entry, kept across eviction so
// monitoring can describe unloaded entries.
type dims struct {
	Pointers   int
	Objects    int
	Groups     int
	Rectangles int

	// Delta-chain lineage: the head stamp, the number of applied
	// segments, every snapshot stamp (base first; omitted when the chain
	// is empty), and why on-disk chain discovery stopped early, if it did.
	Stamp     uint64
	Chain     int
	Lineage   []uint64
	ChainNote string
}

// genDims summarizes a generation for monitoring.
func genDims(g *generation, note string) dims {
	d := dims{
		Pointers:   g.sn.Pointers(),
		Objects:    g.sn.Objects(),
		Groups:     g.sn.Groups(),
		Rectangles: g.sn.Rectangles(),
		Stamp:      g.sn.Generation(),
		Chain:      g.sn.Chain(),
		ChainNote:  note,
	}
	if d.Chain > 0 {
		d.Lineage = g.sn.Lineage()
	}
	return d
}

type entry struct {
	name string
	path string // "" for a resident entry (AddIndex), which has no file

	// guarded by Store.mu:
	gen      *generation   // current generation; nil when not loaded
	loading  *inflight     // non-nil while a first load is in flight
	swapping bool          // a Refresh is decoding a replacement
	loadErr  string        // last load/swap failure, "" when healthy
	genSeq   int64         // bumped on every successful load or swap
	elem     *list.Element // LRU position; non-nil iff gen != nil
	info     dims

	hits      atomic.Int64
	misses    atomic.Int64
	loads     atomic.Int64
	evictions atomic.Int64
	swaps     atomic.Int64
	applies   atomic.Int64 // delta segments applied by Refresh without reloading the base
	loadLat   perf.Histogram
	applyLat  perf.Histogram
}

// inflight is one in-progress first load. The loader stores err and then
// closes done (the channel close publishes the write), so every waiter
// observes the same outcome: a failed load surfaces the one error to all
// waiters instead of letting each retry the broken file in turn.
type inflight struct {
	done chan struct{}
	err  error
}

// Store is a managed, memory-budgeted catalog of decoded indexes.
type Store struct {
	opts Options

	// loadFn, when non-nil, replaces loadGeneration — a seam for tests
	// that need to control load timing or force failures.
	loadFn func(path string) (*generation, dims, error)

	mu      sync.Mutex
	entries map[string]*entry
	lru     *list.List // of *entry; front = hottest; loaded entries only
	total   int64      // bytes charged: current + retired-but-pinned generations
	dirs    []string   // directories rescanned by Refresh
	lastRef string     // last Refresh error, "" when healthy
	closed  bool

	stop chan struct{}
	wg   sync.WaitGroup
}

// New returns an empty Store; populate the catalog with Add/AddDir. If
// opts.ReloadInterval is positive the background reloader starts
// immediately; stop it with Close.
func New(opts Options) *Store {
	s := &Store{
		opts:    opts,
		entries: make(map[string]*entry),
		lru:     list.New(),
		stop:    make(chan struct{}),
	}
	if opts.ReloadInterval > 0 {
		s.wg.Add(1)
		go s.reloader()
	}
	return s
}

func (s *Store) reloader() {
	defer s.wg.Done()
	t := time.NewTicker(s.opts.ReloadInterval)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			_ = s.Refresh()
		}
	}
}

// Close stops the background reloader. The catalog stays usable; Close
// exists so serve can shut the poller down cleanly.
func (s *Store) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	close(s.stop)
	s.wg.Wait()
}

// Add registers one backend name → .pes path. The file is not touched
// until the first Acquire.
func (s *Store) Add(name, path string) error {
	if name == "" {
		return errors.New("store: empty backend name")
	}
	if path == "" {
		return fmt.Errorf("store: empty path for backend %q", name)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.entries[name]; dup {
		return fmt.Errorf("%w %q", ErrDuplicate, name)
	}
	s.entries[name] = &entry{name: name, path: path}
	return nil
}

// AddIndex registers an index already in memory as a resident entry. It is
// loaded from the start and carries one pin that is never released, so
// eviction skips it; it has no file, so Refresh skips it. Its footprint,
// ID text table included (built here), is charged to the budget, and its
// version tag is "s:<dims>" (see residentTag). The store does not close
// ix.
func (s *Store) AddIndex(name string, ix *core.Index) error {
	if name == "" {
		return errors.New("store: empty backend name")
	}
	if ix == nil {
		return fmt.Errorf("store: nil index for backend %q", name)
	}
	sn, err := delta.New(ix)
	if err != nil {
		return err
	}
	ix.BuildIDText()
	g := &generation{sn: sn, bytes: ix.MemoryFootprint(), tag: residentTag(ix), refs: 1}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.entries[name]; dup {
		return fmt.Errorf("%w %q", ErrDuplicate, name)
	}
	e := &entry{name: name, gen: g, genSeq: 1, info: genDims(g, "")}
	e.elem = s.lru.PushFront(e)
	s.entries[name] = e
	s.total += g.bytes
	s.evictLocked()
	return nil
}

// AddDir scans dir for *.pes files and catalogs each under its file stem.
// The directory is remembered: Refresh rescans it and picks up files added
// later. Returns the number of entries added by this scan.
func (s *Store) AddDir(dir string) (int, error) {
	s.mu.Lock()
	known := false
	for _, d := range s.dirs {
		if d == dir {
			known = true
			break
		}
	}
	if !known {
		s.dirs = append(s.dirs, dir)
	}
	s.mu.Unlock()
	return s.scanDir(dir)
}

func (s *Store) scanDir(dir string) (int, error) {
	des, err := os.ReadDir(dir)
	if err != nil {
		return 0, fmt.Errorf("store: scanning %s: %w", dir, err)
	}
	added := 0
	for _, de := range des {
		if de.IsDir() || !strings.HasSuffix(de.Name(), ".pes") {
			continue
		}
		name := strings.TrimSuffix(de.Name(), ".pes")
		err := s.Add(name, filepath.Join(dir, de.Name()))
		switch {
		case err == nil:
			added++
		case errors.Is(err, ErrDuplicate):
			// Already catalogued (a rescan, or an explicit Add shadowing
			// the directory); keep the existing entry.
		default:
			return added, err
		}
	}
	return added, nil
}

// Names lists the catalogued backends, sorted.
func (s *Store) Names() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.entries))
	for name := range s.entries {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Handle is a pinned reference to one decoded generation. The Index stays
// valid — immune to eviction and hot-swap — until Release.
type Handle struct {
	s    *Store
	e    *entry
	g    *generation
	seq  int64
	once sync.Once
}

// Index returns the pinned query surface: the head snapshot of the decoded
// base plus its applied delta chain, which forwards every query to the
// base when the chain is empty. The answers are frozen at pin time —
// hot-swaps, delta applies, and eviction never move a held Handle off its
// generation.
func (h *Handle) Index() delta.Index { return h.g.sn }

// Stamp returns the delta-generation stamp the pinned answers correspond
// to (0 for a base that never had deltas).
func (h *Handle) Stamp() uint64 { return h.g.sn.Generation() }

// Checksum returns the hex SHA-256 of the file image this generation was
// decoded from (all zeros for a resident entry, which has no file).
func (h *Handle) Checksum() string { return hex.EncodeToString(h.g.sum[:]) }

// VersionTag identifies the content this generation answers for:
// "<hash>@<stamp>" for an entry loaded from a file (see fileTag), "s:<dims>"
// for a resident one (see residentTag). That is the granularity a server
// needs to report which content a reply corresponds to, and to key cached
// answers on.
func (h *Handle) VersionTag() string { return h.g.tag }

// Generation returns the entry's generation sequence number at pin time
// (1 for the first load, bumped by every hot-swap or reload).
func (h *Handle) Generation() int64 { return h.seq }

// Release unpins the generation. Safe to call more than once.
func (h *Handle) Release() {
	h.once.Do(func() {
		s := h.s
		s.mu.Lock()
		h.g.refs--
		if h.g.refs == 0 && h.g.retired {
			s.total -= h.g.bytes
			h.g.free()
		}
		// Releasing may be what brings a pinned-over-budget store back
		// under its budget; collect now rather than waiting for the next
		// load.
		s.evictLocked()
		s.mu.Unlock()
	})
}

// Acquire resolves name to a pinned decoded index, loading it on first use.
// Concurrent acquires of a cold entry share one decode; ctx bounds only the
// wait on someone else's load — the load this call performs itself is run
// to completion so waiters can use it.
func (s *Store) Acquire(ctx context.Context, name string) (*Handle, error) {
	counted := false
	for {
		s.mu.Lock()
		e, ok := s.entries[name]
		if !ok {
			s.mu.Unlock()
			return nil, fmt.Errorf("%w %q", ErrUnknown, name)
		}
		if e.gen != nil {
			if !counted {
				e.hits.Add(1)
			}
			e.gen.refs++
			s.lru.MoveToFront(e.elem)
			h := &Handle{s: s, e: e, g: e.gen, seq: e.genSeq}
			s.mu.Unlock()
			return h, nil
		}
		if !counted {
			e.misses.Add(1)
			counted = true
		}
		if inf := e.loading; inf != nil {
			s.mu.Unlock()
			select {
			case <-inf.done:
				if inf.err != nil {
					// Share the loader's error rather than looping back
					// and re-attempting the same broken file ourselves.
					return nil, inf.err
				}
				continue
			case <-ctx.Done():
				return nil, fmt.Errorf("store: waiting for %q to load: %w", name, ctx.Err())
			}
		}
		inf := &inflight{done: make(chan struct{})}
		e.loading = inf
		s.mu.Unlock()

		start := time.Now()
		gen, info, err := s.load(e.path)

		s.mu.Lock()
		e.loading = nil
		if err != nil {
			e.loadErr = err.Error()
			inf.err = fmt.Errorf("store: loading backend %q from %s: %w", name, e.path, err)
			close(inf.done)
			s.mu.Unlock()
			return nil, inf.err
		}
		close(inf.done)
		e.loadErr = ""
		e.loads.Add(1)
		e.loadLat.Observe(time.Since(start))
		e.gen = gen
		e.genSeq++
		e.info = info
		e.elem = s.lru.PushFront(e)
		s.total += gen.bytes
		gen.refs++
		s.evictLocked()
		h := &Handle{s: s, e: e, g: gen, seq: e.genSeq}
		s.mu.Unlock()
		return h, nil
	}
}

func (s *Store) load(path string) (*generation, dims, error) {
	if s.loadFn != nil {
		return s.loadFn(path)
	}
	return loadGeneration(path)
}

// loadGeneration turns one .pes file into a generation, picking the path
// by magic. PES1 files are read whole and decoded onto the heap — the
// checksum then covers exactly the bytes that were decoded, even when a
// concurrent writer is mid-rewrite. PES2 files are memory-mapped and
// served zero-copy: the generation's budget charge is the file size, and
// freeing it unmaps. The mapping pins the inode, so PES2 rewriters must
// replace the file by rename, never truncate it in place.
//
// A delta chain discovered next to the file (FORMATS.md §PESD1) is applied
// on top, so the generation serves the chain head. A malformed or
// mis-chained segment never fails the load: the valid prefix (possibly
// empty) is served and the reason discovery stopped is surfaced via
// EntryInfo.ChainNote.
func loadGeneration(path string) (*generation, dims, error) {
	magic, err := sniffMagic(path)
	if err != nil {
		return nil, dims{}, err
	}
	var ix *core.Index
	var sum [sha256.Size]byte
	if magic == "PES2" {
		raw, closeMap, mapErr := safeio.MapFile(path)
		if mapErr != nil {
			return nil, dims{}, mapErr
		}
		sum = sha256.Sum256(raw)
		ix, err = core.LoadMapped(raw, closeMap)
		if err != nil {
			closeMap()
			return nil, dims{}, err
		}
	} else {
		raw, readErr := os.ReadFile(path)
		if readErr != nil {
			return nil, dims{}, readErr
		}
		sum = sha256.Sum256(raw)
		ix, err = core.Load(bytes.NewReader(raw))
		if err != nil {
			return nil, dims{}, err
		}
	}
	// Build the text table list answers are copied from now, so the
	// generation's charge includes it from the start.
	ix.BuildIDText()
	note := ""
	var segs []*delta.Segment
	if chain, cerr := delta.BuildChain(path, delta.HintOf(sum), 0); cerr != nil {
		note = cerr.Error()
	} else {
		segs, note = chain.Segs, chain.Broken
	}
	sn, err := delta.New(ix, segs...)
	if err != nil {
		// Strict replay rejected the chain (e.g. a segment re-adds a
		// present fact). Serve the base alone and report why.
		note = err.Error()
		if sn, err = delta.New(ix); err != nil {
			ix.Close()
			return nil, dims{}, err
		}
	}
	g := newGeneration(sn, sum)
	return g, genDims(g, note), nil
}

// sniffMagic reads the first four bytes of path. Short files sniff as
// whatever bytes they have — they will fail the real load with a precise
// error rather than here.
func sniffMagic(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	var m [4]byte
	n, _ := io.ReadFull(f, m[:])
	return string(m[:n]), nil
}

// evictLocked frees cold, unpinned generations until the charged total is
// within budget. Pinned entries are skipped — a query in flight never has
// its index freed underneath it — so a fully pinned store may sit over
// budget until handles release.
func (s *Store) evictLocked() {
	if s.opts.MemBudget <= 0 {
		return
	}
	for el := s.lru.Back(); el != nil && s.total > s.opts.MemBudget; {
		prev := el.Prev()
		e := el.Value.(*entry)
		if e.gen.refs == 0 {
			s.total -= e.gen.bytes
			e.gen.free()
			e.gen = nil
			s.lru.Remove(el)
			e.elem = nil
			e.evictions.Add(1)
		}
		el = prev
	}
}

// Refresh rescans catalogued directories for new .pes files and re-hashes
// the file behind every loaded entry, hot-swapping any whose content
// changed. Unloaded entries are left alone — their next Acquire reads the
// current file anyway — and so are resident ones. The first error is
// returned after the full sweep is attempted.
func (s *Store) Refresh() error {
	var firstErr error
	s.mu.Lock()
	dirs := append([]string(nil), s.dirs...)
	s.mu.Unlock()
	for _, dir := range dirs {
		if _, err := s.scanDir(dir); err != nil && firstErr == nil {
			firstErr = err
		}
	}

	s.mu.Lock()
	var candidates []*entry
	for _, e := range s.entries {
		if e.gen != nil && e.path != "" && !e.swapping && e.loading == nil {
			e.swapping = true
			candidates = append(candidates, e)
		}
	}
	s.mu.Unlock()

	for _, e := range candidates {
		if err := s.refreshEntry(e); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	s.mu.Lock()
	if firstErr != nil {
		s.lastRef = firstErr.Error()
	} else {
		s.lastRef = ""
	}
	s.mu.Unlock()
	return firstErr
}

// refreshEntry hot-swaps one entry if its file changed. Called with
// e.swapping held; clears it on every path.
func (s *Store) refreshEntry(e *entry) error {
	defer func() {
		s.mu.Lock()
		e.swapping = false
		s.mu.Unlock()
	}()

	s.mu.Lock()
	old := e.gen
	if old != nil {
		// Pin old until the refresh ends: eviction must not free (for PES2,
		// unmap) the base an extend is still reading.
		old.refs++
	}
	s.mu.Unlock()
	if old == nil { // evicted since the candidate scan; nothing to swap
		return nil
	}
	defer (&Handle{s: s, g: old}).Release()
	// Cheap change test first: re-hash the file and bail if unchanged, so
	// the steady state (nothing rewritten) costs one read and no load.
	raw, err := os.ReadFile(e.path)
	if err != nil {
		return s.failed(e, err, "store: refreshing %q", e.name)
	}
	if sha256.Sum256(raw) == old.sum {
		// The base is unchanged; new delta segments next to it extend the
		// served chain without re-decoding the base — the milliseconds
		// path an incremental writer pays for one edit batch.
		return s.extendEntry(e, old)
	}
	// Changed: load the new generation off to the side — decoding a PES1
	// file, mapping a PES2 one — then install it with one pointer swap.
	// Readers pinned on old keep it alive; total stays charged for old
	// until its last Release.
	start := time.Now()
	gen, info, err := s.load(e.path)
	if err != nil {
		return s.failed(e, err, "store: re-loading %q from %s", e.name, e.path)
	}
	if gen.sum == old.sum { // the file raced back to the old content
		gen.free()
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.installLocked(e, old, gen, info) {
		e.swaps.Add(1)
		e.loads.Add(1)
		e.loadLat.Observe(time.Since(start))
	}
	return nil
}

// newGeneration wraps the snapshot sn of the file image whose SHA-256 is
// sum, charging its footprint.
func newGeneration(sn *delta.Snapshot, sum [sha256.Size]byte) *generation {
	return &generation{sn: sn, sum: sum, bytes: sn.MemoryFootprint(), tag: fileTag(sum, sn.Generation())}
}

// extendEntry applies delta segments that appeared on disk past the stamp
// entry e currently serves, reading only the files named past it. The new
// generation shares the old one's decoded base (refcounted by the
// snapshots), so readers pinned on the old head keep answering from their
// generation while new queries see the extended chain — the same swap
// discipline as a full hot-swap, minus the base re-decode. The base bytes
// are charged under both generations until the old one's last Release.
func (s *Store) extendEntry(e *entry, old *generation) error {
	head := old.sn.Generation()
	chain, err := delta.BuildChain(e.path, delta.HintOf(old.sum), head)
	if err != nil || len(chain.Segs) == 0 || chain.Segs[0].Parent != head {
		return nil // nothing on disk chains onto the served head
	}
	start := time.Now()
	sn, err := old.sn.Extend(chain.Segs...)
	if err != nil {
		return s.failed(e, err, "store: applying deltas to %q", e.name)
	}
	gen := newGeneration(sn, old.sum)
	info := genDims(gen, chain.Broken)

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.installLocked(e, old, gen, info) {
		e.applies.Add(1)
		e.applyLat.Observe(time.Since(start))
	}
	return nil
}

// installLocked makes gen, built from old, the current generation of e:
// old is retired and freed once no handle pins it, gen is charged to the
// budget, e moves to the LRU front, and eviction runs. If e no longer
// serves old — swapped or evicted while gen was built — gen is freed
// instead and installLocked reports false. Called with s.mu held.
func (s *Store) installLocked(e *entry, old, gen *generation, info dims) bool {
	if e.gen != old {
		gen.free()
		return false
	}
	old.retired = true
	if old.refs == 0 {
		s.total -= old.bytes
		old.free()
	}
	e.gen = gen
	e.genSeq++
	e.loadErr = ""
	e.info = info
	s.total += gen.bytes
	s.lru.MoveToFront(e.elem)
	s.evictLocked()
	return true
}

// failed records err as e's last load error, the one /debug/store
// reports, and returns it wrapped in the message format and args give.
func (s *Store) failed(e *entry, err error, format string, args ...any) error {
	s.mu.Lock()
	e.loadErr = err.Error()
	s.mu.Unlock()
	return fmt.Errorf(format+": %w", append(args, err)...)
}

// EntryInfo is the monitoring snapshot of one catalog entry.
type EntryInfo struct {
	Name       string `json:"name"`
	Path       string `json:"path"`
	Loaded     bool   `json:"loaded"`
	Mapped     bool   `json:"mapped,omitempty"` // zero-copy PES2 mapping, not a heap decode
	Generation int64  `json:"generation"`
	Bytes      int64  `json:"bytes"`
	Checksum   string `json:"checksum,omitempty"`
	Pinned     int    `json:"pinned"` // in-flight handles, plus the permanent pin of a resident entry

	// Last-known dimensions; survive eviction so unloaded entries stay
	// describable. All zero before the first load.
	Pointers   int `json:"pointers"`
	Objects    int `json:"objects"`
	Groups     int `json:"groups"`
	Rectangles int `json:"rectangles"`

	// Delta-chain lineage: the generation stamp queries answer at, how
	// many segments sit on the base, every snapshot stamp in order (only
	// when the chain is non-empty), and why on-disk chain discovery
	// stopped early, if it did.
	Stamp      uint64   `json:"stamp"`
	DeltaChain int      `json:"delta_chain"`
	Lineage    []uint64 `json:"lineage,omitempty"`
	ChainNote  string   `json:"chain_note,omitempty"`

	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Loads     int64 `json:"loads"`
	Evictions int64 `json:"evictions"`
	Swaps     int64 `json:"swaps"`
	// Applies counts Refresh passes that advanced this entry by applying
	// delta segments in place of a full reload; ApplyLatency is how long
	// those took, to be read against LoadLatency (the full decode/map
	// cost) — the measured gap is the point of the delta path.
	Applies      int64                  `json:"applies"`
	LoadLatency  perf.HistogramSnapshot `json:"load_latency"`
	ApplyLatency perf.HistogramSnapshot `json:"apply_latency"`
	LastError    string                 `json:"last_error,omitempty"`
}

// Stats is the store-wide monitoring snapshot (the /debug/store payload).
type Stats struct {
	Budget           int64       `json:"budget"`
	LoadedBytes      int64       `json:"loaded_bytes"`
	Entries          int         `json:"entries"`
	LoadedEntries    int         `json:"loaded_entries"`
	Hits             int64       `json:"hits"`
	Misses           int64       `json:"misses"`
	Loads            int64       `json:"loads"`
	Evictions        int64       `json:"evictions"`
	Swaps            int64       `json:"swaps"`
	Applies          int64       `json:"applies"`
	LastRefreshError string      `json:"last_refresh_error,omitempty"`
	Backends         []EntryInfo `json:"backends"`
}

// Snapshot summarizes every catalog entry, sorted by name.
func (s *Store) Snapshot() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := Stats{
		Budget:           s.opts.MemBudget,
		LoadedBytes:      s.total,
		Entries:          len(s.entries),
		LastRefreshError: s.lastRef,
	}
	for _, e := range s.entries {
		ei := EntryInfo{
			Name:         e.name,
			Path:         e.path,
			Generation:   e.genSeq,
			Pointers:     e.info.Pointers,
			Objects:      e.info.Objects,
			Groups:       e.info.Groups,
			Rectangles:   e.info.Rectangles,
			Stamp:        e.info.Stamp,
			DeltaChain:   e.info.Chain,
			Lineage:      e.info.Lineage,
			ChainNote:    e.info.ChainNote,
			Hits:         e.hits.Load(),
			Misses:       e.misses.Load(),
			Loads:        e.loads.Load(),
			Evictions:    e.evictions.Load(),
			Swaps:        e.swaps.Load(),
			Applies:      e.applies.Load(),
			LoadLatency:  e.loadLat.Snapshot(),
			ApplyLatency: e.applyLat.Snapshot(),
			LastError:    e.loadErr,
		}
		if e.gen != nil {
			ei.Loaded = true
			ei.Mapped = e.gen.sn.Mapped()
			ei.Bytes = e.gen.bytes
			if e.path != "" {
				ei.Checksum = hex.EncodeToString(e.gen.sum[:])
			}
			ei.Pinned = e.gen.refs
			out.LoadedEntries++
		}
		out.Hits += ei.Hits
		out.Misses += ei.Misses
		out.Loads += ei.Loads
		out.Evictions += ei.Evictions
		out.Swaps += ei.Swaps
		out.Applies += ei.Applies
		out.Backends = append(out.Backends, ei)
	}
	sort.Slice(out.Backends, func(i, j int) bool { return out.Backends[i].Name < out.Backends[j].Name })
	return out
}
