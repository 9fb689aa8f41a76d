package main

import (
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"entmatcher/internal/core"
	"entmatcher/internal/embed"
	"entmatcher/internal/eval"
	"entmatcher/internal/kg"
)

// workload is one benchmark workload: pipeline passes over a dataset of
// Profile at Scale followed by the serving stage, or (Pipeline nil) the
// serving stage alone, whose set-up then includes building the snapshot.
type workload struct {
	Name     string        `json:"name"`
	Why      string        `json:"why"`
	Profile  string        `json:"profile"`
	Scale    float64       `json:"scale"`
	Pipeline *pipelineSpec `json:"pipeline,omitempty"`
	// SetupReps is how many times set-up runs untraced, timed in groups of
	// SetupGroup repetitions (1 when zero).
	SetupReps  int `json:"setup_reps"`
	SetupGroup int `json:"setup_group,omitempty"`
	// IdleAligns is how many /align requests an idle server answers to
	// give run_s and f1_mean on a serving-only workload.
	IdleAligns int `json:"idle_aligns,omitempty"`
	// PassShare is the share of --seconds spent on repeated pipeline
	// passes (at least two); the serving stage takes the rest.
	PassShare float64 `json:"pass_share,omitempty"`
	// LadderShare and MixedShare size the whole rate ladder (all rounds)
	// and the mixed phase as shares of --seconds.
	LadderShare float64   `json:"ladder_share"`
	MixedShare  float64   `json:"mixed_share"`
	Serve       serveSpec `json:"serve"`
}

func workloads() map[string]*workload {
	// Every workload reports every end-to-end metric, so every workload
	// runs the serving stage the serve-mixed workload is defined by: the
	// same snapshot shape and the same traffic.
	serve := serveSpec{
		Profile: "D-W", Scale: 0.3, Dim: 64,
		Rates: []float64{1000, 2000, 4000, 8000, 16000}, Rounds: 3, LatencyRate: 4000,
		MixedRate: 1000, AlignMatcher: "Hun.", AlignEveryS: 5, Zipf: 1.1, LimitMS: 10,
		RecallRows: 1000, CheckSample: 200,
	}
	return map[string]*workload{
		"paper-dense": {
			Name:    "paper-dense",
			Why:     "the paper's main experiment: RREA encoding, a dense cosine matrix and all seven Table 2 matchers; stresses internal/core",
			Profile: "D-Z", Scale: 0.3,
			Pipeline:  &pipelineSpec{Dense: true},
			SetupReps: 40, SetupGroup: 8, PassShare: 0.5, LadderShare: 0.16, MixedShare: 0.6, Serve: serve,
		},
		"encode-sparse": {
			Name:    "encode-sparse",
			Why:     "the production-shaped path: RREA encoding dominates, then candidate graphs at C=64 for RInf-sparse and Hun.-sparse; dense matchers never run",
			Profile: "D-Z", Scale: 0.5,
			Pipeline:  &pipelineSpec{Cand: candBudget},
			SetupReps: 40, SetupGroup: 8, PassShare: 0.5, LadderShare: 0.16, MixedShare: 0.6, Serve: serve,
		},
		"serve-mixed": {
			Name:    "serve-mixed",
			Why:     "internal/server on its SQ8+IVF snapshot under open-loop point queries plus periodic /align; the encoder does no work",
			Profile: serve.Profile, Scale: serve.Scale,
			SetupReps: 3, IdleAligns: 3, LadderShare: 0.16, MixedShare: 0.6, Serve: serve,
		},
	}
}

func workloadNames() []string {
	var out []string
	for n := range workloads() {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// endToEnd and perLayer are the metric names and units the two modes emit.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"}, {"run_s", "s"}, {"peak_rss_mib", "MiB"}, {"f1_mean", "ratio"},
	{"topk_p50_ms", "ms"}, {"topk_ok_share", "ratio"}, {"mixed_ok_share", "ratio"},
	{"align_s", "s"}, {"topk_recall", "ratio"},
}

var perLayer = []struct{ name, unit string }{
	{"datagen.generate_s", "s"},
	{"embed.encode_s", "s"}, {"embed.alloc_mib", "MiB"}, {"embed.share", "ratio"},
	{"sim.matrix_s", "s"}, {"sim.stream_s", "s"},
	{"matrix.candgraph_s", "s"}, {"matrix.candgraph_mcells_per_s", "Mcells/s"},
	{"core.match_s.DInf", "s"}, {"core.match_s.CSLS", "s"}, {"core.match_s.RInf", "s"},
	{"core.match_s.Sink", "s"}, {"core.match_s.Hun", "s"}, {"core.match_s.SMat", "s"},
	{"core.match_s.RL", "s"}, {"core.match_s.RInf-sparse", "s"}, {"core.match_s.Hun-sparse", "s"},
	{"core.alloc_mib", "MiB"}, {"eval.evaluate_s", "s"},
	{"go.gc_cpu_s", "s"}, {"go.peak_heap_mib", "MiB"},
	{"snapshot.write_s", "s"}, {"snapshot.bytes", "bytes"}, {"snapshot.open_s", "s"},
	{"ann.train_s", "s"}, {"quant.encode_s", "s"}, {"ann.search_quant_us", "us"},
	{"server.service_p50_us", "us"}, {"server.service_p99_us", "us"},
	{"server.cache_hit_share", "ratio"}, {"server.mean_batch", "count"},
	{"server.coalesced_dup_share", "ratio"}, {"server.shed_share", "ratio"},
	{"server.degraded_share", "ratio"}, {"core.align_elapsed_s", "s"},
	{"gen.late_p99_ms", "ms"}, {"trace.overhead_s", "s"}, {"trace.spans", "count"},
}

func unitOf(names []struct{ name, unit string }, name string) string {
	for _, n := range names {
		if n.name == name {
			return n.unit
		}
	}
	panic("perfbench: undeclared metric " + name)
}

// emit stores v under a declared metric name.
func (o *outcome) emit(names []struct{ name, unit string }, name string, v float64) {
	o.metrics[name] = metric{Value: v, Unit: unitOf(names, name)}
}

// run executes the workload once under o.
func (w *workload) run(o runOpts) (*outcome, error) {
	out := newOutcome()
	var tr *tracer
	if o.trace {
		tr = newTracer()
		for _, m := range perLayer {
			out.emit(perLayer, m.name, 0)
		}
	}
	st := &stage{w: w, o: o, out: out, tr: tr, alignPairs: -1,
		path: filepath.Join(o.workdir, fmt.Sprintf("%s-seed%d.snap", w.Name, o.seed))}
	// The snapshot is temporary: tens of MiB per run, rebuilt every run.
	defer os.Remove(st.path)
	var err error
	if w.Pipeline != nil {
		err = st.runPipeline()
	} else {
		err = st.runServing()
	}
	if err != nil {
		return nil, err
	}
	if tr != nil {
		out.spans = tr.closed()
		out.emit(perLayer, "trace.spans", float64(len(out.spans)))
		self := make(map[string]float64)
		for name, d := range selfTimes(out.spans) {
			self[name] = d.Seconds()
		}
		out.phases["self_time_s"] = self
	} else {
		out.emit(endToEnd, "peak_rss_mib", vmHWM())
	}
	return out, nil
}

// stage carries one run's state between its steps.
type stage struct {
	w    *workload
	o    runOpts
	out  *outcome
	tr   *tracer
	path string
	// alignPairs is the pair count of the run's first /align (-1 before).
	alignPairs int
}

// checkAlign checks an /align answer, holding every /align of the run to
// the first one's pair count.
func (s *stage) checkAlign(r *reqResult, srv *served) ([]core.Pair, *alignBody, error) {
	pairs, b, err := checkAlign(s.w.Serve.AlignMatcher, r, srv.rows, srv.cols, s.alignPairs)
	if err == nil && s.alignPairs < 0 {
		s.alignPairs = b.Pairs
	}
	return pairs, b, err
}

func (s *stage) e2e(name string, v float64) {
	if s.tr == nil {
		s.out.emit(endToEnd, name, v)
	}
}

func (s *stage) layer(name string, v float64) {
	if s.tr != nil {
		s.out.emit(perLayer, name, v)
	}
}

// setupDataset generates the dataset SetupReps times untraced (once,
// traced). The repetitions are timed in groups of SetupGroup, and setup_s
// is the median group time divided by the group size: a short generation
// pays a garbage collection only every few repetitions, so a group's mean
// varies less than a single generation's time.
func (s *stage) setupDataset(extra func(d *kg.Pair) error) (*kg.Pair, error) {
	reps, group := s.w.SetupReps, max(1, s.w.SetupGroup)
	if s.tr != nil {
		reps, group = 1, 1
	}
	var times []float64
	var d *kg.Pair
	start := time.Now()
	for i := 1; i <= reps; i++ {
		var err error
		gen, err := timed(s.tr, "datagen.generate", 0, func() error {
			d, err = generate(s.w.Profile, s.w.Scale, s.o.seed)
			return err
		})
		if err != nil {
			return nil, err
		}
		s.layer("datagen.generate_s", gen.Seconds())
		if extra != nil {
			if err := extra(d); err != nil {
				return nil, err
			}
		}
		if i%group == 0 {
			times = append(times, time.Since(start).Seconds()/float64(group))
			start = time.Now()
		}
	}
	s.e2e("setup_s", median(times))
	s.out.phases["setup_s_samples"] = times
	return d, nil
}

func (s *stage) runPipeline() error {
	if err := s.pipelinePasses(); err != nil {
		return err
	}
	d, err := generate(s.w.Serve.Profile, s.w.Serve.Scale, s.o.seed)
	if err != nil {
		return err
	}
	srv, _, err := s.buildServed(d)
	if err != nil {
		return err
	}
	defer srv.close()
	return s.serveStage(srv)
}

// pipelinePasses runs the measured passes. Nothing of the passes outlives
// it, so the pipeline's heap is garbage before the serving stage starts.
func (s *stage) pipelinePasses() error {
	spec := *s.w.Pipeline
	d, err := s.setupDataset(nil)
	if err != nil {
		return err
	}
	first, err := runPass(d, spec)
	if err != nil {
		return err
	}
	if err := first.check(nil); err != nil {
		s.out.fail(err)
	}
	last := first
	passes := []float64{first.elapsed.Seconds()}
	s.out.attempted += len(first.names)
	if s.tr == nil {
		budget := time.Duration(s.w.PassShare * s.o.seconds * float64(time.Second))
		start := time.Now()
		for len(passes) < 2 || time.Since(start)+first.elapsed < budget {
			r, err := runPass(d, spec)
			if err != nil {
				return err
			}
			if err := r.check(first); err != nil {
				s.out.fail(err)
			}
			s.out.attempted += len(r.names)
			passes = append(passes, r.elapsed.Seconds())
			last = r
		}
		s.e2e("run_s", median(passes))
		s.e2e("f1_mean", first.f1Mean())
	} else {
		// The first pass warms the heap. The traced pass then runs between
		// two untraced runs of the same layer-by-layer code, whose mean is
		// its baseline, so a drift in pass times from one pass to the next
		// is not counted as tracing overhead.
		var r *passResult
		var ls *layerStats
		var times []float64
		for _, tr := range []*tracer{nil, s.tr, nil} {
			p, l, err := runTracedPass(d, spec, tr)
			if err != nil {
				return err
			}
			if err := p.check(first); err != nil {
				s.out.fail(err)
			}
			s.out.attempted += len(p.names)
			times = append(times, p.elapsed.Seconds())
			if tr != nil {
				r, ls = p, l
			}
		}
		last = r
		s.layer("embed.encode_s", ls.encode.Seconds())
		s.layer("embed.alloc_mib", ls.embedAlloc/(1<<20))
		s.layer("embed.share", ls.encode.Seconds()/r.elapsed.Seconds())
		s.layer("sim.matrix_s", ls.matrix.Seconds())
		s.layer("sim.stream_s", ls.stream.Seconds())
		s.layer("matrix.candgraph_s", ls.candgraph.Seconds())
		if ls.candgraph > 0 {
			s.layer("matrix.candgraph_mcells_per_s", ls.cells/ls.candgraph.Seconds()/1e6)
		}
		for k, v := range matchLayerMetrics(ls) {
			s.layer(k, v)
		}
		s.layer("core.alloc_mib", ls.coreAlloc/(1<<20))
		s.layer("eval.evaluate_s", ls.evaluate.Seconds())
		s.layer("go.gc_cpu_s", ls.gcCPU)
		s.layer("go.peak_heap_mib", ls.peakHeap)
		s.layer("trace.overhead_s", times[1]-(times[0]+times[2])/2)
		s.out.phases["run_s_layer_passes"] = times
	}
	s.out.phases["run_s_samples"] = passes
	s.out.phases["f1"] = map[string]any{"matchers": last.names, "f1": last.f1}
	return nil
}

// buildServed draws the synthetic embeddings of d, writes the served
// snapshot (traced: layer by layer) and opens it. It also returns the
// gold pairs the /align answers are scored against.
func (s *stage) buildServed(d *kg.Pair) (*served, []core.Pair, error) {
	emb := syntheticEmbeddings(d, s.w.Serve.Dim, s.o.seed)
	task, err := eval.OneToOneTask(d)
	if err != nil {
		return nil, nil, err
	}
	if s.tr == nil {
		err = buildSnapshot(d, emb, s.path, s.o.seed)
	} else {
		err = s.tracedSnapshot(d, emb)
	}
	if err != nil {
		return nil, nil, err
	}
	srv, err := s.open()
	return srv, task.Gold, err
}

func (s *stage) tracedSnapshot(d *kg.Pair, emb *embed.Embeddings) error {
	sl, err := buildSnapshotTraced(d, emb, s.path, s.o.seed, s.tr)
	if err != nil {
		return err
	}
	s.layer("snapshot.write_s", sl.write.Seconds())
	s.layer("snapshot.bytes", float64(sl.bytes))
	s.layer("ann.train_s", sl.annTrain.Seconds())
	s.layer("quant.encode_s", sl.quantEncode.Seconds())
	return nil
}

// open opens the snapshot with server.NewMapped (traced: in a span).
func (s *stage) open() (*served, error) {
	var srv *served
	dt, err := timed(s.tr, "snapshot.open", 0, func() error {
		var err error
		srv, err = openServed(s.path)
		return err
	})
	s.layer("snapshot.open_s", dt.Seconds())
	return srv, err
}

func (s *stage) runServing() error {
	var srv *served
	var gold []core.Pair
	// Set-up is the dataset, the synthetic embeddings, the snapshot build
	// and its open; the last repetition's server stays open.
	_, err := s.setupDataset(func(d *kg.Pair) error {
		if srv != nil {
			if err := srv.close(); err != nil {
				return err
			}
		}
		var err error
		srv, gold, err = s.buildServed(d)
		return err
	})
	if err != nil {
		if srv != nil {
			srv.close()
		}
		return err
	}
	defer srv.close()

	if s.tr != nil {
		// The candidate-graph probe on the tile source /align runs on.
		ref, err := loadRef(s.path)
		if err != nil {
			return err
		}
		stream, build, err := ref.candGraphProbe(candBudget, s.tr)
		if err != nil {
			return err
		}
		s.layer("sim.stream_s", stream.Seconds())
		s.layer("matrix.candgraph_s", build.Seconds())
		s.layer("matrix.candgraph_mcells_per_s", float64(srv.rows)*float64(srv.cols)/build.Seconds()/1e6)
	}

	// run_s: /align on the idle server, then scoring its pairs.
	// Traced, one /align is traced between two untraced ones, whose mean
	// is the baseline of the tracing overhead.
	plan := make([]*tracer, s.w.IdleAligns)
	if s.tr != nil {
		plan = []*tracer{nil, s.tr, nil}
	}
	var runs, f1s []float64
	var firstPairs []core.Pair
	for i, tr := range plan {
		start := time.Now()
		r := srv.alignOnce(s.w.Serve.AlignMatcher, tr, int64(1e9+i))
		pairs, _, err := s.checkAlign(r, srv)
		s.out.attempted++
		if err != nil {
			s.out.fail(err)
			continue
		}
		var f1 float64
		ev, err := timed(tr, "eval.evaluate", 0, func() error {
			f1 = eval.Score(pairs, gold).F1
			return nil
		})
		if err != nil {
			return err
		}
		if tr != nil {
			s.layer("eval.evaluate_s", ev.Seconds())
		}
		if firstPairs == nil {
			firstPairs = pairs
		} else if err := checkRepeat("/align "+s.w.Serve.AlignMatcher, firstPairs, pairs); err != nil {
			s.out.fail(err)
		}
		runs = append(runs, time.Since(start).Seconds())
		f1s = append(f1s, f1)
	}
	if len(runs) == 0 {
		return fmt.Errorf("no /align succeeded: %w", s.out.checkErr)
	}
	if s.tr == nil {
		s.e2e("run_s", median(runs))
		s.e2e("f1_mean", median(f1s))
	} else if len(runs) == 3 {
		s.layer("trace.overhead_s", runs[1]-(runs[0]+runs[2])/2)
	}
	s.out.phases["run_s_samples"] = runs
	return s.serveStage(srv)
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// warmup is the untimed interval before the rate ladder.
const warmup = 500 * time.Millisecond

// serveStage runs the rate ladder and the mixed phase against srv, checks
// the answers and emits the serving metrics.
func (s *stage) serveStage(srv *served) error {
	spec := s.w.Serve
	rng := rand.New(rand.NewSource(s.o.seed*7919 + 17))
	rounds := max(1, spec.Rounds)
	step := time.Duration(s.w.LadderShare * s.o.seconds * float64(time.Second) / float64(rounds*len(spec.Rates)))
	// The mixed phase is a whole number of /align periods.
	alignEvery := time.Duration(spec.AlignEveryS * float64(time.Second))
	mixedDur := time.Duration(max(1, math.Round(s.w.MixedShare*s.o.seconds/spec.AlignEveryS))) * alignEvery
	limit := time.Duration(spec.LimitMS * float64(time.Millisecond))
	var total float64
	for _, r := range spec.Rates {
		total += r * step.Seconds() * float64(rounds)
	}
	sample := 2 * float64(spec.CheckSample) / max(1, total)

	// Drop the pipeline's garbage, then warm the page cache, the LRU and
	// the scheduler with a short untimed interval at the first rate.
	runtime.GC()
	debug.FreeOSMemory()
	srv.openLoop(rng, spec, spec.Rates[0], warmup, 0, 0, nil, 0)

	st0 := srv.srv.Stats()
	perRate := make([][]phaseStats, len(spec.Rates))
	var all []*phase
	var reqBase int64
	for round := 0; round < rounds; round++ {
		for i, rate := range spec.Rates {
			p := srv.openLoop(rng, spec, rate, step, 0, sample, s.tr, reqBase)
			reqBase += int64(len(p.topk))
			perRate[i] = append(perRate[i], p.stats(limit))
			all = append(all, p)
		}
	}
	ladder := make([]phaseStats, len(spec.Rates))
	for i := range perRate {
		ladder[i] = mergeRounds(perRate[i])
	}
	mixed := srv.openLoop(rng, spec, spec.MixedRate, mixedDur, alignEvery, sample, s.tr, reqBase)
	all = append(all, mixed)
	st1 := srv.srv.Stats()
	ms := mixed.stats(limit)
	s.out.phases["ladder"] = ladder
	s.out.phases["mixed"] = ms

	// Counts and checks.
	var kept []*reqResult
	var service, late []float64
	var sent, failed, shed int
	for _, p := range all {
		for i := range p.topk {
			r := &p.topk[i]
			sent++
			service = append(service, float64(r.end.Sub(r.start))/1e3)
			if p != mixed {
				// Generator lateness on the ladder, where it competes only
				// with point queries; in the mixed phase /align starves it
				// along with the handlers, which latency-from-due counts.
				late = append(late, float64(r.start.Sub(r.due))/1e6)
			}
			switch r.status {
			case http.StatusOK:
				if r.body != nil && len(kept) < spec.CheckSample {
					kept = append(kept, r)
				}
			case http.StatusTooManyRequests:
				shed++
			default:
				failed++
				s.out.fail(fmt.Errorf("/match/topk row %d k %d: status %d", r.row, r.k, r.status))
			}
		}
	}
	var alignLat, alignElapsed []float64
	for i := range mixed.align {
		r := &mixed.align[i]
		sent++
		_, body, err := s.checkAlign(r, srv)
		if err != nil {
			failed++
			s.out.fail(err)
			continue
		}
		alignLat = append(alignLat, r.latency().Seconds())
		alignElapsed = append(alignElapsed, float64(body.ElapsedMS)/1e3)
	}
	s.out.attempted += sent
	s.out.phases["requests"] = map[string]int{"sent": sent, "ok_200": sent - failed - shed, "shed_429": shed, "failed": failed, "checked_topk": len(kept)}

	ref, err := loadRef(srv.path)
	if err != nil {
		return err
	}
	searchQuant, err := checkServedTopK(ref, kept)
	s.out.attempted += len(kept)
	if err != nil {
		s.out.fail(err)
	}
	recall, err := srv.recallAt10(ref, rng, spec.RecallRows)
	if err != nil {
		s.out.fail(err)
	}

	var lat4k phaseStats
	var ok, all1 int
	for _, st := range ladder {
		if st.Rate == spec.LatencyRate {
			lat4k = st
		}
		ok += st.OK
		all1 += st.Sent
	}
	s.out.phases["rate_meeting_limit"] = rateMeetingLimit(ladder)
	s.out.phases["peak_ok_rps"] = peakOKRate(ladder)
	s.e2e("topk_p50_ms", lat4k.P50MS)
	s.e2e("topk_ok_share", float64(ok)/float64(max(1, all1)))
	s.e2e("mixed_ok_share", ms.OKShare)
	s.e2e("align_s", median(alignLat))
	s.out.phases["align_s_samples"] = alignLat
	s.e2e("topk_recall", recall)

	d := func(a, b int64) float64 { return float64(a - b) }
	s.layer("ann.search_quant_us", float64(searchQuant)/1e3)
	s.layer("server.service_p50_us", percentile(service, 0.5))
	s.layer("server.service_p99_us", percentile(service, 0.99))
	hits, misses := d(st1.CacheHits, st0.CacheHits), d(st1.CacheMisses, st0.CacheMisses)
	s.layer("server.cache_hit_share", hits/max(1, hits+misses))
	if b := d(st1.Batches, st0.Batches); b > 0 {
		s.layer("server.mean_batch", d(st1.BatchedQueries, st0.BatchedQueries)/b)
	}
	s.layer("server.coalesced_dup_share", d(st1.CoalescedDup, st0.CoalescedDup)/max(1, misses))
	s.layer("server.shed_share", d(st1.GateRejections, st0.GateRejections)/float64(max(1, sent)))
	q, a, e := d(st1.ServedQuant, st0.ServedQuant), d(st1.ServedANN, st0.ServedANN), d(st1.ServedExact, st0.ServedExact)
	s.layer("server.degraded_share", (a+e)/max(1, q+a+e))
	s.layer("core.align_elapsed_s", median(alignElapsed))
	s.layer("gen.late_p99_ms", percentile(late, 0.99))
	return nil
}
