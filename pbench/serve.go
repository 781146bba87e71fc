package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"pestrie"
)

const (
	clients      = 4                      // closed-loop clients, one request in flight each
	batchSize    = 32                     // queries per /batch request
	warmup       = time.Second            // untimed load before the measured window
	setupReps    = 5                      // set-ups per run; setup_s is their median
	checkEvery   = 32                     // every 32nd measured batch is checked in full
	zipfS        = 1.1                    // serve-zipf argument skew
	publishEvery = 200 * time.Millisecond // serve-live: one delta segment per period
	reloadEvery  = "50ms"                 // serve-live: the server's refresh poll
	editsPerSeg  = 32                     // serve-live: fact flips per segment
	editSet      = 128                    // serve-live: pointers the edits touch
	preloaded    = 10                     // serve-live: segments in place before the window
	backendName  = "idx"
)

// serveShape is the analysed program behind the served index: about 18k
// pointers, 14k objects, and 0.55M points-to facts.
var serveShape = progShape{Modules: 100, FuncsPerMod: 10, Structs: 4, Values: 8, Stmts: 20, Lib: 64}

// servedProgram is the program both serve workloads index and offline
// set-up takes to a decoded index. It does not depend on --seed: its
// alias structure sets the cost of every answer, and generated programs
// differ in mean alias-set size by about a tenth, so a program drawn from
// the seed would spread runs by seed rather than by the code under test.
// The seed draws the query and edit streams and the offline corpus.
func servedProgram() string {
	return genProgram(rand.New(rand.NewPCG(0, 1)), serveShape)
}

// runServe runs serve-zipf (live=false) or serve-live (live=true).
func runServe(ctx context.Context, cfg config, live bool) (*outcome, error) {
	if cfg.pestrie == "" {
		return nil, errors.New("--pestrie is required for the serve workloads")
	}
	tr := newTracer(cfg.trace)
	out := &outcome{correct: true, spans: tr, layers: map[string]metric{}}
	text := servedProgram()
	dir := filepath.Join(cfg.work, "serve")
	base := filepath.Join(dir, backendName+".pes")
	args := []string{"-in", backendName + "=" + base}
	if live {
		args = append(args, "-reload-interval", reloadEvery)
	}

	// Set-up: analyse, build, persist, start the server, and get the
	// first answer (which, for the store-backed server, decodes the
	// file). Repeated so setup_s is a median; the index bytes must not
	// change between repetitions.
	var srv *server
	defer func() {
		if srv != nil {
			srv.stop()
		}
	}()
	var setups []time.Duration
	var pm *pestrie.Matrix
	var pes []byte
	for rep := 0; rep < setupReps; rep++ {
		if srv != nil {
			srv.stop()
			srv = nil
		}
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		start := time.Now()
		m, b, err := encodeProgram(text, tr, int64(rep))
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(base, b, 0o644); err != nil {
			return nil, err
		}
		t := time.Now()
		if srv, err = startServer(ctx, cfg.pestrie, args...); err != nil {
			return nil, err
		}
		if _, err := srv.post(ctx, encodeBatch(nil, backendName, []query{{op: opPointsTo}})); err != nil {
			return nil, err
		}
		end := time.Now()
		tr.add("pipeline", "", int64(rep), start, end)
		tr.add("ready", "pipeline", int64(rep), t, end)
		setups = append(setups, end.Sub(start))
		if pes != nil && !bytes.Equal(pes, b) {
			out.fail("the persisted index differs between identical set-ups")
		}
		pm, pes = m, b
	}
	f, err := readFacts(pm)
	if err != nil {
		return nil, err
	}
	versions := []*version{{facts: f}}
	var segs []string
	staging := filepath.Join(cfg.work, "staging")
	if live {
		if versions, segs, err = stageSegments(cfg, pm, f, base, staging); err != nil {
			return nil, err
		}
	}
	zs := 0.0
	if !live {
		zs = zipfS
	}
	st := newStream(cfg.seed, f, zs)
	runtime.GC()

	var fr *freshness
	if live {
		for _, name := range segs[:preloaded] {
			if err := os.Rename(filepath.Join(staging, name), filepath.Join(dir, name)); err != nil {
				return nil, err
			}
		}
		if err := awaitStamp(ctx, srv, preloaded); err != nil {
			return nil, err
		}
		fr = &freshness{published: map[uint64]time.Time{}, seen: map[uint64]time.Time{}, max: preloaded}
	}
	var next atomic.Int64
	if _, err := drive(ctx, srv, st, warmup, &next, nil, nil, false); err != nil {
		return nil, err
	}
	var before, after debugStats
	if cfg.trace {
		if err := srv.getJSON(ctx, "/debug/stats", &before); err != nil {
			return nil, err
		}
	}
	stopPub := make(chan struct{})
	pubDone := make(chan error, 1)
	if live {
		go func() { pubDone <- publish(ctx, segs[preloaded:], preloaded+1, staging, dir, fr, stopPub) }()
	} else {
		pubDone <- nil
	}
	ld, err := drive(ctx, srv, st, time.Duration(cfg.seconds)*time.Second, &next, tr, fr, true)
	close(stopPub)
	if perr := <-pubDone; err == nil {
		err = perr
	}
	if err != nil {
		return nil, err
	}
	if cfg.trace {
		if err := srv.getJSON(ctx, "/debug/stats", &after); err != nil {
			return nil, err
		}
	}
	if live {
		// Every published generation must reach clients.
		if err := awaitStamp(ctx, srv, fr.last); err != nil {
			out.fail(err.Error())
		}
	}

	out.attempted, out.failed = ld.queries, ld.failed
	if ld.stampErr != "" {
		out.fail(ld.stampErr)
	}
	for _, k := range ld.kept {
		if err := checkReply(versions, k, tr); err != nil {
			out.fail(err.Error())
			break
		}
	}

	p50, p90 := latencies(ld.samples)
	answered := 0.0
	for _, s := range ld.samples {
		answered += s.work
	}
	tput := answered / ld.elapsed.Seconds()
	out.e2e = map[string]metric{
		"p50_ms":     {ms(p50), "ms"},
		"p90_ms":     {ms(p90), "ms"},
		"throughput": {tput, "1/s"},
		"setup_s":    {quantile(setups, 0.5).Seconds(), "s"},
	}
	if cfg.trace {
		if err := serveLayers(ctx, out.layers, tr, srv, before, after, live, fr); err != nil {
			return nil, err
		}
		out.layers["pes_bytes"] = metric{float64(len(pes)), "bytes"}
		out.layers["reply_bytes"] = metric{float64(ld.bytes) / float64(len(ld.samples)), "bytes"}
	}
	return out, nil
}

// fail marks the run incorrect, reporting the first reason on stderr.
func (o *outcome) fail(reason string) {
	if o.correct {
		fmt.Fprintln(os.Stderr, "pbench: incorrect:", reason)
	}
	o.correct = false
}

// serveLayers fills the per-layer metrics of a serve run.
func serveLayers(ctx context.Context, m map[string]metric, tr *tracer, srv *server, before, after debugStats, live bool, fr *freshness) error {
	for _, l := range []string{"parse", "solve", "build", "encode", "ready"} {
		m[l+"_ms"] = metric{ms(tr.mean(l)), "ms"}
	}
	rt := tr.mean("roundtrip")
	batch := windowMean(before, after, backendName, "batch")
	m["client_encode_us"] = metric{us(tr.mean("client_encode")), "us"}
	m["roundtrip_ms"] = metric{ms(rt), "ms"}
	m["client_decode_us"] = metric{us(tr.mean("client_decode")), "us"}
	m["server_batch_ms"] = metric{ms(batch), "ms"}
	m["outside_batch_ms"] = metric{ms(rt - batch), "ms"}
	for _, op := range opNames {
		m[op+"_us"] = metric{us(windowMean(before, after, backendName, op)), "us"}
	}
	if !live {
		return nil
	}
	var ds debugStore
	if err := srv.getJSON(ctx, "/debug/store", &ds); err != nil {
		return err
	}
	for _, b := range ds.Backends {
		if b.Name == backendName {
			m["decode_ms"] = metric{ms(time.Duration(b.LoadLatency.MeanNS)), "ms"}
			m["apply_ms"] = metric{ms(time.Duration(b.ApplyLatency.MeanNS)), "ms"}
		}
	}
	m["visible_ms"] = metric{ms(quantile(fr.lags(), 0.5)), "ms"}
	return nil
}

// load is what a closed-loop drive observed.
type load struct {
	samples  []sample      // one per answered batch; work is the queries answered
	queries  int64         // queries sent
	failed   int64         // queries failed or answered with an error
	bytes    int64         // reply bytes
	elapsed  time.Duration // window start to last reply
	kept     []kept        // batches retained for a full answer check
	stampErr string        // a client saw the served generation go back
	last     time.Time
}

// kept is one batch retained for checking after the window.
type kept struct {
	i     int64 // batch number
	qs    []query
	body  []byte
	stamp uint64
}

// drive runs the closed loop for d: each client sends its next batch as
// soon as the previous reply has been read. Batches are numbered from
// next, so the stream does not depend on the client count.
func drive(ctx context.Context, srv *server, st *stream, d time.Duration, next *atomic.Int64, tr *tracer, fr *freshness, keep bool) (*load, error) {
	start := time.Now()
	deadline := start.Add(d)
	per := make([]load, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for w := range per {
		wg.Add(1)
		go func(l *load, errp *error) {
			defer wg.Done()
			var buf []byte
			var lastStamp uint64
			for ctx.Err() == nil && time.Now().Before(deadline) {
				i := next.Add(1) - 1
				t0 := time.Now()
				qs := st.batch(i, batchSize)
				buf = encodeBatch(buf[:0], backendName, qs)
				t1 := time.Now()
				body, err := srv.post(ctx, buf)
				t2 := time.Now()
				l.queries += int64(len(qs))
				if err != nil {
					if ctx.Err() != nil {
						*errp = ctx.Err()
						return
					}
					l.failed += int64(len(qs))
					continue
				}
				bad := bytes.Count(body, errorKey)
				l.failed += int64(bad)
				l.samples = append(l.samples, sample{t2.Sub(t1), float64(len(qs) - bad)})
				l.bytes += int64(len(body))
				l.last = t2
				stamp, err := stampOf(body)
				if err != nil {
					*errp = err
					return
				}
				if stamp < lastStamp && l.stampErr == "" {
					l.stampErr = fmt.Sprintf("a client saw generation %d after %d", stamp, lastStamp)
				}
				lastStamp = stamp
				if fr != nil {
					fr.saw(stamp, t2)
				}
				if keep && i%checkEvery == 0 {
					l.kept = append(l.kept, kept{i, qs, body, stamp})
				}
				tr.add("batch", "", i, t0, t2)
				tr.add("client_encode", "batch", i, t0, t1)
				tr.add("roundtrip", "batch", i, t1, t2)
			}
		}(&per[w], &errs[w])
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	all := &load{}
	for _, l := range per {
		all.samples = append(all.samples, l.samples...)
		all.queries += l.queries
		all.failed += l.failed
		all.bytes += l.bytes
		all.kept = append(all.kept, l.kept...)
		if all.stampErr == "" {
			all.stampErr = l.stampErr
		}
		if l.last.After(all.last) {
			all.last = l.last
		}
	}
	if len(all.samples) == 0 {
		return nil, errors.New("no batch was answered")
	}
	all.elapsed = all.last.Sub(start)
	return all, nil
}

// reply is a /batch reply body.
type reply struct {
	Results    []answer `json:"results"`
	Generation string   `json:"generation"`
}

// checkReply checks every answer of a retained batch against the facts of
// the generation the reply names. Decoding the reply is the client's
// share of answer transport, so it is traced as client_decode.
func checkReply(versions []*version, k kept, tr *tracer) error {
	var r reply
	t0 := time.Now()
	if err := json.Unmarshal(k.body, &r); err != nil {
		return fmt.Errorf("decoding reply: %w", err)
	}
	tr.add("client_decode", "batch", k.i, t0, time.Now())
	if len(r.Results) != len(k.qs) {
		return fmt.Errorf("reply has %d results for %d queries", len(r.Results), len(k.qs))
	}
	if k.stamp >= uint64(len(versions)) {
		return fmt.Errorf("reply names generation %d, which was never published", k.stamp)
	}
	v := versions[k.stamp]
	for i, q := range k.qs {
		if err := v.check(q, r.Results[i]); err != nil {
			return fmt.Errorf("generation %d: %w", k.stamp, err)
		}
	}
	return nil
}

// stageSegments writes the serve-live edit stream as delta segments into
// staging, one per generation, ready to be published by rename. It returns
// the oracle version of every generation, base first.
//
// The edits keep to a working set of editSet pointers, the way a developer
// keeps editing the same functions. The set of rows that differ from the
// base, which every snapshot query consults, so stops growing once the
// preloaded segments have touched it, and the served cost per query stays
// level through the window.
func stageSegments(cfg config, pm *pestrie.Matrix, f *facts, base, staging string) ([]*version, []string, error) {
	vx, chain, err := pestrie.OpenVersioned(base)
	if err != nil {
		return nil, nil, err
	}
	hint := chain.Hint
	if err := vx.Close(); err != nil {
		return nil, nil, err
	}
	if err := os.MkdirAll(staging, 0o755); err != nil {
		return nil, nil, err
	}
	var ptrs []int32
	for p, r := range f.pts {
		if len(r) > 0 {
			ptrs = append(ptrs, int32(p))
		}
	}
	rng := rand.New(rand.NewPCG(cfg.seed, 3))
	rng.Shuffle(len(ptrs), func(i, j int) { ptrs[i], ptrs[j] = ptrs[j], ptrs[i] })
	ptrs = ptrs[:editSet]
	n := preloaded + cfg.seconds*int(time.Second/publishEvery) + 2
	versions := []*version{{facts: f, dirty: map[int32][]int32{}}}
	var names []string
	prev := pm
	for k := 1; k <= n; k++ {
		cur := prev.Clone()
		v := &version{facts: f, dirty: maps.Clone(versions[k-1].dirty)}
		for e := 0; e < editsPerSeg; e++ {
			p := ptrs[rng.IntN(len(ptrs))]
			row := v.row(p)
			if len(row) > 1 && rng.IntN(2) == 0 {
				i := rng.IntN(len(row))
				cur.Remove(int(p), int(row[i]))
				v.dirty[p] = slices.Delete(slices.Clone(row), i, i+1)
				continue
			}
			o := int32(rng.IntN(len(f.pby)))
			i, found := slices.BinarySearch(row, o)
			if found {
				continue
			}
			cur.Add(int(p), int(o))
			v.dirty[p] = slices.Insert(slices.Clone(row), i, o)
		}
		seg, err := pestrie.DiffMatrices(prev, cur)
		if err != nil {
			return nil, nil, err
		}
		if seg == nil {
			return nil, nil, fmt.Errorf("edit batch %d changed nothing", k)
		}
		seg.Gen, seg.Parent, seg.BaseHint = uint64(k), uint64(k-1), hint
		name := filepath.Base(pestrie.SegmentPath(base, uint64(k)))
		if err := pestrie.WriteSegmentFile(filepath.Join(staging, name), seg); err != nil {
			return nil, nil, err
		}
		versions = append(versions, v)
		names = append(names, name)
		prev = cur
	}
	return versions, names, nil
}

// freshness tracks when each generation was published and when a client
// first saw it.
type freshness struct {
	mu        sync.Mutex
	published map[uint64]time.Time // generation → when it was renamed into place
	seen      map[uint64]time.Time // generation → first reply naming it or a later one
	max       uint64               // newest generation seen
	last      uint64               // newest generation published
}

func (f *freshness) publish(gen uint64, t time.Time) {
	f.mu.Lock()
	f.published[gen] = t
	f.last = gen
	f.mu.Unlock()
}

func (f *freshness) saw(stamp uint64, t time.Time) {
	f.mu.Lock()
	for ; f.max < stamp; f.max++ {
		f.seen[f.max+1] = t
	}
	f.mu.Unlock()
}

// lags returns, per published generation a client saw, the time from
// publication to the first reply naming it.
func (f *freshness) lags() []time.Duration {
	f.mu.Lock()
	defer f.mu.Unlock()
	var out []time.Duration
	for g, p := range f.published {
		if t, ok := f.seen[g]; ok {
			out = append(out, t.Sub(p))
		}
	}
	return out
}

// publish renames the staged segments, generations first, first+1, ...,
// into the served directory, one every publishEvery, until stop is closed
// or the stream runs out. The time is taken before the rename, so a lag
// is never negative.
func publish(ctx context.Context, segs []string, first uint64, staging, dir string, fr *freshness, stop <-chan struct{}) error {
	tick := time.NewTicker(publishEvery)
	defer tick.Stop()
	for i, name := range segs {
		select {
		case <-stop:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
		}
		t := time.Now()
		if err := os.Rename(filepath.Join(staging, name), filepath.Join(dir, name)); err != nil {
			return err
		}
		fr.publish(first+uint64(i), t)
	}
	return nil
}

// awaitStamp polls until a reply names generation want or later.
func awaitStamp(ctx context.Context, srv *server, want uint64) error {
	body := encodeBatch(nil, backendName, []query{{op: opPointsTo}})
	deadline := time.Now().Add(5 * time.Second)
	for {
		r, err := srv.post(ctx, body)
		if err != nil {
			return err
		}
		got, err := stampOf(r)
		if err != nil {
			return err
		}
		if got >= want {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("generation %d was published but the server still answers at %d", want, got)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
