package main

import (
	"context"
	"fmt"
	"time"

	"entmatcher"
	"entmatcher/internal/core"
	"entmatcher/internal/datagen"
	"entmatcher/internal/embed"
	"entmatcher/internal/eval"
	"entmatcher/internal/kg"
	"entmatcher/internal/matrix"
	"entmatcher/internal/sim"
)

// candBudget is the top-C candidate budget of the sparse engine and of the
// candidate-graph probe.
const candBudget = 64

// pipelineSpec is one pipeline workload: a D-Z dataset at a scale, run
// either densely through the seven Table 2 matchers or sparsely through
// the candidate-graph twins.
type pipelineSpec struct {
	Dense bool `json:"dense"`
	Cand  int  `json:"cand,omitempty"`
}

// matchers returns fresh instances of the workload's matchers.
func (p pipelineSpec) matchers() []core.Matcher {
	if p.Dense {
		return entmatcher.AllMatchers()
	}
	return []core.Matcher{core.NewRInfSparse(p.Cand), core.NewHungarianSparse(p.Cand)}
}

func (p pipelineSpec) config() entmatcher.PipelineConfig {
	cfg := entmatcher.PipelineConfig{Model: entmatcher.ModelRREA}
	if !p.Dense {
		cfg.CandidateBudget = p.Cand
	}
	return cfg
}

// generate builds the workload's dataset with the workload seed.
func generate(profile string, scale float64, seed int64) (*kg.Pair, error) {
	prof, ok := datagen.ByName(profile)
	if !ok {
		return nil, fmt.Errorf("unknown profile %q", profile)
	}
	prof = prof.Scaled(scale)
	prof.Seed = seed
	return datagen.Generate(prof)
}

// passResult is one encode → prepare → match → evaluate pass.
type passResult struct {
	elapsed time.Duration
	rows    int
	cols    int
	names   []string
	pairs   [][]core.Pair
	f1      []float64
}

func (r *passResult) f1Mean() float64 {
	var s float64
	for _, f := range r.f1 {
		s += f
	}
	return s / float64(len(r.f1))
}

// check verifies every matcher's pairs and, given an earlier pass of the
// same workload, that this pass repeated it exactly.
func (r *passResult) check(first *passResult) error {
	for i, name := range r.names {
		if err := checkPairs(name, r.pairs[i], r.rows, r.cols); err != nil {
			return err
		}
		if first != nil {
			if err := checkRepeat(name, first.pairs[i], r.pairs[i]); err != nil {
				return err
			}
		}
	}
	return nil
}

// runPass is the untraced pass through the public pipeline API.
func runPass(d *kg.Pair, spec pipelineSpec) (*passResult, error) {
	start := time.Now()
	emb, err := entmatcher.EncodeStructure(d, entmatcher.ModelRREA)
	if err != nil {
		return nil, err
	}
	run, err := entmatcher.NewPipeline(spec.config()).PrepareWithEmbeddings(d, emb)
	if err != nil {
		return nil, err
	}
	res := &passResult{}
	res.rows, res.cols = run.Dims()
	for _, m := range spec.matchers() {
		out, met, err := run.Match(m)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", m.Name(), err)
		}
		res.names = append(res.names, m.Name())
		res.pairs = append(res.pairs, out.Pairs)
		res.f1 = append(res.f1, met.F1)
	}
	res.elapsed = time.Since(start)
	return res, nil
}

// layerStats are the per-layer numbers of one traced pass.
type layerStats struct {
	encode, matrix, stream, evaluate time.Duration
	candgraph                        time.Duration // the C, C build
	cells                            float64
	match                            map[string]time.Duration
	embedAlloc, coreAlloc            float64
	gcCPU, peakHeap                  float64
}

// runTracedPass repeats runPass's work by calling each layer's public
// functions directly, one span per call. With a nil tracer it records no
// spans: that is the untraced baseline of the tracing overhead.
func runTracedPass(d *kg.Pair, spec pipelineSpec, tr *tracer) (*passResult, *layerStats, error) {
	ls := &layerStats{match: make(map[string]time.Duration)}
	heap := startHeapSampler()
	c0 := readCounters()
	start := time.Now()
	root := tr.begin("pipeline.run", 0, 0)

	var emb *embed.Embeddings
	var err error
	ls.encode, err = timed(tr, "embed.encode", root, func() error {
		a := readCounters()
		emb, err = embed.Encode(d, embed.DefaultConfig(embed.ModelRREA))
		ls.embedAlloc = readCounters().sub(a).allocBytes
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	var task *eval.Task
	var srcAdj, tgtAdj [][]int
	var srcSel, tgtSel *matrix.Dense
	evTask, err := timed(tr, "eval.task", root, func() error {
		if task, err = eval.OneToOneTask(d); err != nil {
			return err
		}
		srcSel, tgtSel = emb.Source.SelectRows(task.SourceIDs), emb.Target.SelectRows(task.TargetIDs)
		srcAdj, tgtAdj = eval.LocalAdjacency(d.Source, task.SourceIDs), eval.LocalAdjacency(d.Target, task.TargetIDs)
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	mctx := &core.Context{SourceAdj: srcAdj, TargetAdj: tgtAdj}
	if spec.Dense {
		ls.matrix, err = timed(tr, "sim.matrix", root, func() error {
			mctx.S, err = sim.Matrix(srcSel, tgtSel, sim.Cosine)
			return err
		})
	} else {
		ls.stream, err = timed(tr, "sim.stream", root, func() error {
			var st *sim.Stream
			st, err = sim.NewStream(srcSel, tgtSel, sim.Cosine)
			mctx.Stream = st
			return err
		})
	}
	if err != nil {
		return nil, nil, err
	}
	res := &passResult{}
	res.rows, res.cols = len(task.SourceIDs), len(task.TargetIDs)
	var evMatch time.Duration
	for _, m := range spec.matchers() {
		mc := mctx
		if cRev, ok := sparseGraphs(m.Name(), spec.Cand, res.rows, res.cols); ok {
			// Build the graphs this matcher builds, in their own span, and
			// hand them to it prebuilt: its span then times the matcher alone.
			bg := &builtGraphs{TileSource: mctx.Stream, c: spec.Cand, cRev: cRev}
			dt, err := timed(tr, "matrix.candgraph", root, func() error {
				bg.fwd, bg.rev, err = matrix.BuildCandGraphs(context.Background(), mctx.Stream, spec.Cand, cRev)
				return err
			})
			if err != nil {
				return nil, nil, err
			}
			if cRev == spec.Cand {
				ls.candgraph = dt
			}
			c := *mctx
			c.Stream = bg
			mc = &c
		}
		var out *core.Result
		a := readCounters()
		dt, err := timed(tr, "core.match."+m.Name(), root, func() error {
			if err := core.ValidateContext(mc); err != nil {
				return err
			}
			out, err = core.SafeMatch(m, mc)
			return err
		})
		ls.coreAlloc += readCounters().sub(a).allocBytes
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", m.Name(), err)
		}
		ls.match[m.Name()] = dt
		var met eval.Metrics
		de, _ := timed(tr, "eval.evaluate", root, func() error {
			met = task.Evaluate(out)
			return nil
		})
		evMatch += de
		res.names = append(res.names, m.Name())
		res.pairs = append(res.pairs, out.Pairs)
		res.f1 = append(res.f1, met.F1)
	}
	tr.end(root)
	res.elapsed = time.Since(start)
	ls.evaluate = evTask + evMatch
	ls.gcCPU = readCounters().sub(c0).gcCPU
	ls.peakHeap = heap.stopMiB()
	ls.cells = float64(res.rows) * float64(res.cols)
	return res, ls, nil
}

// sparseGraphs reports whether matcher builds candidate graphs and, if so,
// the reverse budget it asks for: RInf-sparse both directions at C,
// Hun.-sparse the reverse graph only for tall tasks.
func sparseGraphs(matcher string, c, rows, cols int) (cRev int, ok bool) {
	switch matcher {
	case "RInf-sparse":
		return c, true
	case "Hun.-sparse":
		if rows > cols {
			return c, true
		}
		return 0, true
	}
	return 0, false
}

// builtGraphs is a tile source whose candidate graphs were built ahead of
// the match. A request for other budgets falls back to an exhaustive build
// over the wrapped source, so results never depend on the cache.
type builtGraphs struct {
	matrix.TileSource
	fwd, rev *matrix.CandGraph
	c, cRev  int
}

func (b *builtGraphs) ProduceCandGraph(ctx context.Context, c int) (*matrix.CandGraph, error) {
	if c == b.c {
		return b.fwd, nil
	}
	return matrix.BuildCandGraph(ctx, b.TileSource, c)
}

func (b *builtGraphs) ProduceCandGraphs(ctx context.Context, c, cRev int) (*matrix.CandGraph, *matrix.CandGraph, error) {
	if c == b.c && cRev == b.cRev {
		return b.fwd, b.rev, nil
	}
	return matrix.BuildCandGraphs(ctx, b.TileSource, c, cRev)
}

func (b *builtGraphs) ProduceCandGraphWithColMeans(ctx context.Context, c, kCol int) (*matrix.CandGraph, []float64, error) {
	return matrix.BuildCandGraphWithColMeans(ctx, b.TileSource, c, kCol)
}

// timed runs fn in a span and returns its wall time.
func timed(tr *tracer, name string, parent int64, fn func() error) (time.Duration, error) {
	start := time.Now()
	err := tr.do(name, parent, func(int64) error { return fn() })
	return time.Since(start), err
}

// matchLayerMetrics names the traced pass's per-matcher times as
// core.match_s.* metrics (the sparse matchers' times exclude candidate
// building, which the traced pass times as matrix.candgraph).
func matchLayerMetrics(ls *layerStats) map[string]float64 {
	out := make(map[string]float64)
	for _, key := range []struct{ metric, matcher string }{
		{"DInf", "DInf"}, {"CSLS", "CSLS"}, {"RInf", "RInf"}, {"Sink", "Sink."},
		{"Hun", "Hun."}, {"SMat", "SMat"}, {"RL", "RL"},
		{"RInf-sparse", "RInf-sparse"}, {"Hun-sparse", "Hun.-sparse"},
	} {
		out["core.match_s."+key.metric] = ls.match[key.matcher].Seconds()
	}
	return out
}
