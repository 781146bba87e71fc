// Package pestrie is a persistence layer for pointer information — a Go
// implementation of "Persistent Pointer Information" (PLDI 2014). It takes
// the points-to relation exported by a pointer analysis, compresses it into
// a compact on-disk index by exploiting pointer/object equivalence and hub
// objects, and answers the four standard queries — IsAlias, ListPointsTo,
// ListPointedBy, ListAliases — without re-running the analysis:
//
//	pm := pestrie.NewMatrix(numPointers, numObjects)
//	pm.Add(p, o) // pointer p may point to object o
//	trie := pestrie.Build(pm, nil)
//	trie.WriteTo(file)               // persist
//	idx, err := pestrie.Load(file)   // later, in another process
//	idx.IsAlias(p, q)                // O(log n)
//	idx.ListAliases(p)               // output-linear
//
// The package also ships the baselines the paper evaluates against — a
// GCC-style sparse-bitmap persistence (BitP), a BDD encoding, a bzip2-style
// general-purpose compressor, and a demand-driven oracle — plus an
// Andersen-style pointer analysis over a small IR for producing real
// points-to matrices, a statistical workload generator mirroring the
// paper's benchmarks, and the full evaluation harness (see cmd/benchtables
// and DESIGN.md).
package pestrie

import (
	"io"
	"os"

	"pestrie/internal/anders"
	"pestrie/internal/bitenc"
	"pestrie/internal/clients"
	"pestrie/internal/compose"
	"pestrie/internal/core"
	"pestrie/internal/delta"
	"pestrie/internal/demand"
	"pestrie/internal/flow"
	"pestrie/internal/ir"
	"pestrie/internal/matrix"
	"pestrie/internal/server"
	"pestrie/internal/store"
	"pestrie/internal/synth"
)

// Matrix is the normalized binary points-to matrix (§2 of the paper):
// Matrix[p][o] = 1 iff pointer p may point to object o. Flow-, context-,
// and path-sensitive results are mapped onto this form by the transforms
// in the analysis API (see NormalizeFlow and friends).
type Matrix = matrix.PointsTo

// Characteristics summarizes the equivalence and hub properties of a
// matrix (§2, Figure 1).
type Characteristics = matrix.Characteristics

// NewMatrix returns an empty points-to matrix of the given dimensions.
func NewMatrix(pointers, objects int) *Matrix { return matrix.New(pointers, objects) }

// ReadMatrix deserializes a matrix written by (*Matrix).WriteTo.
func ReadMatrix(r io.Reader) (*Matrix, error) { return matrix.Read(r) }

// Facts is a matrix imported from a textual points-to dump, with name
// tables.
type Facts = matrix.Facts

// ReadFactsText parses the text facts format ("pointer object" per line) —
// the ingestion path for points-to sets exported by external analyses.
func ReadFactsText(r io.Reader) (*Facts, error) { return matrix.ReadFacts(r) }

// WriteFactsText writes a matrix in the text facts format with optional
// name tables.
func WriteFactsText(w io.Writer, pm *Matrix, pointerNames, objectNames []string) error {
	return matrix.WriteFacts(w, pm, pointerNames, objectNames)
}

// Characterize computes the §2 characteristics of a matrix. A
// non-positive threshold selects the paper's hub-degree cutoff of 5000.
func Characterize(pm *Matrix, hubThreshold float64) Characteristics {
	return matrix.Characterize(pm, hubThreshold)
}

// Trie is a constructed Pestrie, ready to persist (WriteTo) or query
// (Index).
type Trie = core.Trie

// Index is the decoded query structure answering the Table 1 queries.
type Index = core.Index

// BuildOptions tune Pestrie construction; nil selects the paper's
// defaults (hub-degree object order, Theorem-2 pruning on).
type BuildOptions = core.Options

// Build constructs a Pestrie for the matrix in one serial pass; the same
// matrix and options always give the same Trie, and the same file from
// WriteTo.
func Build(pm *Matrix, opts *BuildOptions) *Trie { return core.Build(pm, opts) }

// Load decodes a persistent Pestrie file into a query index.
func Load(r io.Reader) (*Index, error) { return core.Load(r) }

// LoadFile is Load over a file path.
func LoadFile(path string) (*Index, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return core.Load(f)
}

// WriteFile persists a Pestrie to a file path.
func WriteFile(t *Trie, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := t.WriteTo(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// WriteFileV2 persists an index in the zero-copy PES2 format: the query
// structures are laid out verbatim in page-aligned columns, so OpenFile
// later serves queries straight off a memory mapping with no decode. PES2
// files trade size (roughly the in-memory footprint, vs. PES1's
// delta-compressed bytes) for constant-time opens. Because readers map the
// file, replace a live one only by rename, never by truncating in place.
func WriteFileV2(ix *Index, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := ix.WriteToV2(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// OpenFile opens a persistent file as a query index, choosing the load
// path by magic: PES2 files are memory-mapped and served zero-copy (call
// Index.Close when done), PES1 files are decoded onto the heap as by Load.
func OpenFile(path string) (*Index, error) { return core.OpenFile(path) }

// --- baselines ---------------------------------------------------------

// BitmapEncoding is the sparse-bitmap persistence baseline (BitP).
type BitmapEncoding = bitenc.Encoding

// EncodeBitmap builds the BitP encoding of a matrix.
func EncodeBitmap(pm *Matrix) *BitmapEncoding { return bitenc.Encode(pm) }

// LoadBitmap decodes a BitP file written by (*BitmapEncoding).WriteTo.
func LoadBitmap(r io.Reader) (*BitmapEncoding, error) { return bitenc.Load(r) }

// DemandOracle answers queries on demand by set intersection, with the
// paper's per-equivalence-class ListAliases cache.
type DemandOracle = demand.Oracle

// NewDemandOracle wraps a matrix in a demand-driven oracle.
func NewDemandOracle(pm *Matrix) *DemandOracle { return demand.New(pm) }

// Querier is the interface every encoding in this module satisfies for
// the three pointer-side queries of Table 1.
type Querier interface {
	IsAlias(p, q int) bool
	ListAliases(p int) []int
	ListPointsTo(p int) []int
}

// Compile-time checks that every encoding answers the standard queries.
var (
	_ Querier = (*Index)(nil)
	_ Querier = (*BitmapEncoding)(nil)
	_ Querier = (*DemandOracle)(nil)
)

// --- composition (library pre-analysis, §1 and §9) ----------------------

// Combined is the linked view over separately persisted library and client
// pointer information sharing an object namespace.
type Combined = compose.Combined

// Compose links a library index with a client index (see the fragment
// example). Combined pointer IDs place the library first; translate with
// LibraryPointer/ClientPointer.
func Compose(lib, client *Index) (*Combined, error) { return compose.New(lib, client) }

// --- pointer analysis --------------------------------------------------

// Program is a pointer-IR program (see the ir package format in
// examples/libpersist and cmd/ptagen).
type Program = ir.Program

// AnalysisResult is the outcome of the Andersen-style analysis: the
// points-to matrix plus name↔ID mappings.
type AnalysisResult = anders.Result

// ParseProgram reads the textual pointer IR.
func ParseProgram(r io.Reader) (*Program, error) { return ir.Parse(r) }

// Analyze runs the Andersen-style inclusion-based analysis. cloneDepth > 0
// applies k-callsite cloning with heap cloning before solving.
func Analyze(prog *Program, cloneDepth int) (*AnalysisResult, error) {
	return anders.Analyze(prog, &anders.Options{CloneDepth: cloneDepth})
}

// FlowResult is the outcome of the bundled flow-sensitive analysis.
type FlowResult = flow.Result

// AnalyzeFlow runs the flow-sensitive analysis (strong updates on locals,
// branch joins); its Normalized field is the §6 p_l-renamed matrix ready
// for Build.
func AnalyzeFlow(prog *Program) (*FlowResult, error) { return flow.Analyze(prog) }

// FlowFact is a flow-sensitive points-to fact (pointer points to object at
// a program point).
type FlowFact = anders.FlowFact

// CondFact is a generic conditioned points-to fact (§6).
type CondFact = anders.CondFact

// Normalized is a flattened conditioned relation with its name tables.
type Normalized = anders.Normalized

// NormalizeFlow maps flow-sensitive facts (l, p) → o onto the binary
// matrix by renaming (l, p) to a fresh pointer p_l (§6).
func NormalizeFlow(facts []FlowFact) *Normalized { return anders.NormalizeFlow(facts) }

// NormalizeConditioned flattens generic conditioned facts (§6).
func NormalizeConditioned(facts []CondFact) *Normalized { return anders.Normalize(facts) }

// MergeContexts rewrites contexts to representatives (1-callsite merging
// when rep is nil), per §6.
func MergeContexts(facts []CondFact, rep func(string) string) []CondFact {
	return anders.MergeContexts(facts, rep)
}

// --- static-analysis clients (cmd/ptalint) -----------------------------

// Finding is one result from the static-analysis client suite: the checker
// that produced it, its position, and a message. Findings render as
// "func:line: check: msg".
type Finding = clients.Finding

// ClientQueries is the persisted-information contract the checkers
// consume: Querier plus the object-side ListPointedBy. The Pestrie Index
// and the demand oracle both satisfy it, which is what lets the whole
// suite run unchanged off either backend.
type ClientQueries = clients.Queries

// LintWarning is one advisory finding from the IR validator; parsed
// programs carry them in Program.Warnings.
type LintWarning = ir.Warning

// CheckNames lists the five available checkers in canonical order:
// leak, nullderef, race, taint, uaf.
func CheckNames() []string { return append([]string(nil), clients.CheckNames...) }

// RunCheckers runs the named checkers (see CheckNames) over a program and
// its analysis result, answering every pointer query through q, and
// returns deterministically sorted findings. leakRoots names the function
// whose locals form the leak checker's root set (conventionally "main").
func RunCheckers(prog *Program, res *AnalysisResult, q ClientQueries, checks []string, leakRoots string) ([]Finding, error) {
	return clients.Run(prog, res, q, checks, leakRoots)
}

// Compile-time checks that both query backends can drive the checkers.
var (
	_ ClientQueries = (*Index)(nil)
	_ ClientQueries = (*DemandOracle)(nil)
)

// --- query service (cmd/pestrie serve) ---------------------------------

// QueryServer serves the indexes of one Store as a concurrent HTTP/JSON
// query service: the four Table-1 queries plus a batch endpoint, each
// batch answered in order on its request's goroutine, with per-backend
// counters and latency histograms at /debug/stats and the store's
// lifecycle at /debug/store. Served answers are byte-identical to direct
// Index calls.
type QueryServer = server.Server

// QueryServerOptions tune the request timeout and the batch size limit,
// name the Store to serve, and can mount net/http/pprof; the zero value
// selects sensible defaults and an unbudgeted store of the server's own.
type QueryServerOptions = server.Options

// NewQueryServer returns a query server over opts.Store; AddIndex
// registers decoded indexes as resident store entries. Then Serve or
// ListenAndServe; Shutdown stops it gracefully.
func NewQueryServer(opts QueryServerOptions) *QueryServer { return server.New(opts) }

// --- managed index store (cmd/pestrie serve) ----------------------------

// Store is the managed, memory-budgeted index store: a catalog of backend
// name → .pes path where indexes decode lazily on first Acquire, cold
// entries are evicted LRU-wise to respect a byte budget (in-flight queries
// pin their generation, so eviction never frees an index mid-query), and
// Refresh hot-swaps entries whose file checksum changed. AddIndex adds an
// index already in memory as a resident entry, never evicted or
// refreshed. A QueryServer serves exactly one Store: set
// QueryServerOptions.Store to choose it.
type Store = store.Store

// StoreOptions configure a Store: the decoded-index memory budget and the
// optional background reload (hot-swap) interval.
type StoreOptions = store.Options

// StoreHandle is a pinned reference to one decoded generation, returned by
// Store.Acquire; the index it exposes survives eviction and hot-swap until
// Release.
type StoreHandle = store.Handle

// NewStore returns an empty store; populate the catalog with Add/AddDir.
func NewStore(opts StoreOptions) *Store { return store.New(opts) }

// --- incremental, versioned indexes (cmd/pestrie delta / compact) -------

// DeltaSegment is one on-disk edit batch (.pesd, FORMATS.md §PESD1): the
// added and removed points-to facts between two generations of a base
// index, stamped with monotonically increasing generation numbers.
type DeltaSegment = delta.Segment

// IndexSnapshot answers the Table-1 queries at one generation of a base
// index and its delta chain. It never changes once taken; Close releases
// its share of the base (munmap for PES2 when the last snapshot closes).
type IndexSnapshot = delta.Snapshot

// SegmentChain is the delta chain found next to a base file: the valid
// segments in generation order and, when discovery stopped early, why.
type SegmentChain = delta.Chain

// DiffMatrices computes the delta segment that turns `from` into `to`
// (nil when they are equal); stamp Gen/Parent/BaseHint before persisting
// with WriteSegmentFile. Dimensions may only grow.
func DiffMatrices(from, to *Matrix) (*DeltaSegment, error) { return delta.Diff(from, to) }

// OpenVersioned opens a base .pes/.pes2 file at the head of the valid delta
// chain next to it (<stem>.dNNNNNN.pesd); a broken chain never fails the
// open, and Chain.Broken says where the served prefix stops.
func OpenVersioned(basePath string) (*IndexSnapshot, *SegmentChain, error) {
	return delta.Open(basePath)
}

// OpenVersionedAt is OpenVersioned at the newest generation <= gen; it
// fails when gen predates the base.
func OpenVersionedAt(basePath string, gen uint64) (*IndexSnapshot, *SegmentChain, error) {
	return delta.OpenAt(basePath, gen)
}

// WriteSegmentFile persists one stamped segment at path (conventionally
// SegmentPath(base, seg.Gen)).
func WriteSegmentFile(path string, seg *DeltaSegment) error {
	return delta.WriteSegmentFile(path, seg)
}

// SegmentPath names the chain file for a generation next to a base path.
func SegmentPath(basePath string, gen uint64) string { return delta.SegmentPath(basePath, gen) }

// CompactChain folds base + chain at generation gen into a fresh Trie,
// byte-identical to building from scratch at that generation.
func CompactChain(base *Index, segs []*DeltaSegment, gen uint64, opts *BuildOptions) (*Trie, error) {
	return delta.Compact(base, segs, gen, opts)
}

// --- workloads ---------------------------------------------------------

// Benchmark is one of the paper's Table 2 benchmark presets.
type Benchmark = synth.Preset

// Benchmarks lists the twelve Table 2 presets.
func Benchmarks() []Benchmark { return synth.Presets }

// BenchmarkByName returns the named preset, or nil.
func BenchmarkByName(name string) *Benchmark { return synth.PresetByName(name) }

// BasePointers selects the dereferenced-pointer query population of
// §7.1.1 from a matrix.
func BasePointers(pm *Matrix, stride int) []int { return synth.BasePointers(pm, stride) }
