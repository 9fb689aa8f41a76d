package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"sync"
	"time"

	"entmatcher"
	"entmatcher/internal/ann"
	"entmatcher/internal/core"
	"entmatcher/internal/embed"
	"entmatcher/internal/eval"
	"entmatcher/internal/kg"
	"entmatcher/internal/matrix"
	"entmatcher/internal/quant"
	"entmatcher/internal/server"
	"entmatcher/internal/sim"
	"entmatcher/internal/snapshot"
)

// serveSpec is the serving stage's traffic: an open-loop /match/topk rate
// ladder, then a mixed phase of steady point queries plus periodic /align.
type serveSpec struct {
	// Profile, Scale and Dim shape the served snapshot: a dataset of the
	// profile at the scale, with Dim-wide synthetic embeddings.
	Profile string    `json:"profile"`
	Scale   float64   `json:"scale"`
	Dim     int       `json:"synthetic_dim"`
	Rates   []float64 `json:"rates"`
	// Rounds is how many times the ladder is climbed; each rate's numbers
	// are the median over rounds, so one transient stall on a shared host
	// does not decide a step.
	Rounds       int     `json:"rounds"`
	LatencyRate  float64 `json:"latency_rate"`
	MixedRate    float64 `json:"mixed_rate"`
	AlignMatcher string  `json:"align_matcher"`
	// AlignEveryS is the /align period of the mixed phase, in seconds.
	AlignEveryS float64 `json:"align_every_s"`
	Zipf        float64 `json:"zipf"`
	LimitMS     float64 `json:"limit_ms"`
	RecallRows  int     `json:"recall_rows"`
	CheckSample int     `json:"check_sample"`
}

// snapshotConfig is the pipeline configuration the served snapshot is
// built with: the exact streaming tables plus an IVF index and SQ8 codes,
// every ANN knob at its default, so the snapshot records NProbe 0 as one
// saved by entmatcher -ann without -nprobe does.
func snapshotConfig(path string, seed int64) entmatcher.PipelineConfig {
	return entmatcher.PipelineConfig{
		Model:           entmatcher.ModelRREA,
		CandidateBudget: candBudget,
		ANN:             &entmatcher.ANNConfig{Seed: seed},
		Quant:           &entmatcher.QuantConfig{},
		SaveSnapshot:    path,
	}
}

// buildSnapshot writes the served snapshot through the public pipeline.
func buildSnapshot(d *kg.Pair, emb *embed.Embeddings, path string, seed int64) error {
	run, err := entmatcher.NewPipeline(snapshotConfig(path, seed)).PrepareWithEmbeddings(d, emb)
	if err != nil {
		return fmt.Errorf("build snapshot: %w", err)
	}
	return run.Close()
}

// snapshotLayers are the per-layer times of one traced snapshot build.
type snapshotLayers struct {
	annTrain, quantEncode, write time.Duration
	bytes                        int64
}

// buildSnapshotTraced repeats buildSnapshot's work one layer call at a
// time: stream preparation, IVF training, SQ8 encoding, snapshot write.
func buildSnapshotTraced(d *kg.Pair, emb *embed.Embeddings, path string, seed int64, tr *tracer) (*snapshotLayers, error) {
	ctx := context.Background()
	sl := &snapshotLayers{}
	root := tr.begin("snapshot.build", 0, 0)
	defer tr.end(root)
	task, err := eval.OneToOneTask(d)
	if err != nil {
		return nil, err
	}
	cfg := snapshotConfig(path, seed)
	var st *sim.Stream
	if _, err = timed(tr, "sim.stream", root, func() error {
		st, err = sim.NewStream(emb.Source.SelectRows(task.SourceIDs), emb.Target.SelectRows(task.TargetIDs), sim.Cosine)
		return err
	}); err != nil {
		return nil, err
	}
	sTab, tTab := st.PreparedTables()
	var fwd, rev *ann.IVFData
	var annCfg ann.Config
	if sl.annTrain, err = timed(tr, "ann.train", root, func() error {
		src, err := ann.NewSource(st, sTab, tTab, ann.Config{NProbe: cfg.ANN.NProbe, Seed: seed})
		if err != nil {
			return err
		}
		annCfg = src.Config()
		fwd, rev, err = src.ExportIndexes(ctx, true)
		return err
	}); err != nil {
		return nil, err
	}
	var srcQ, tgtQ *quant.Table
	if sl.quantEncode, err = timed(tr, "quant.encode", root, func() error {
		if srcQ, err = quant.Encode(ctx, sTab); err != nil {
			return err
		}
		tgtQ, err = quant.Encode(ctx, tTab)
		return err
	}); err != nil {
		return nil, err
	}
	vocab := func(g *kg.Graph, ids []int) []string {
		out := make([]string, len(ids))
		for i, id := range ids {
			out[i] = g.EntityName(id)
		}
		return out
	}
	snap := &snapshot.Snapshot{
		Meta: snapshot.Meta{
			Tool: "entmatcher", Metric: uint32(sim.Cosine),
			SrcRows: sTab.Rows(), TgtRows: tTab.Rows(), Dim: sTab.Cols(),
			ANN: &snapshot.ANNMeta{Clusters: fwd.K, NProbe: annCfg.NProbe, SampleSize: annCfg.SampleSize,
				Iters: annCfg.Iters, Seed: annCfg.Seed},
			Quant: &snapshot.QuantMeta{Rerank: true},
		},
		SrcTable: sTab, TgtTable: tTab,
		SrcVocab: vocab(d.Source, task.SourceIDs), TgtVocab: vocab(d.Target, task.TargetIDs),
		FwdIndex: fwd, RevIndex: rev,
		SrcQuant: srcQ.Export(), TgtQuant: tgtQ.Export(),
	}
	if sl.write, err = timed(tr, "snapshot.write", root, func() error { return snap.Write(path) }); err != nil {
		return nil, err
	}
	fi, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	sl.bytes = fi.Size()
	return sl, nil
}

// syntheticEmbeddings draws clustered unit vectors for every source entity
// and places each linked target at its source plus Gaussian noise; the
// entities without a link get fresh clustered vectors.
func syntheticEmbeddings(d *kg.Pair, dim int, seed int64) *embed.Embeddings {
	rng := rand.New(rand.NewSource(seed))
	const clusters, spread, noise = 256, 1.0, 0.6
	centers := matrix.New(clusters, dim)
	for i := 0; i < clusters; i++ {
		for j := range centers.Row(i) {
			centers.Row(i)[j] = rng.NormFloat64()
		}
	}
	draw := func(row []float64) {
		c := centers.Row(rng.Intn(clusters))
		for j := range row {
			row[j] = c[j] + spread*rng.NormFloat64()
		}
	}
	src := matrix.New(d.Source.NumEntities(), dim)
	tgt := matrix.New(d.Target.NumEntities(), dim)
	for i := 0; i < src.Rows(); i++ {
		draw(src.Row(i))
	}
	linked := make([]bool, tgt.Rows())
	for _, set := range []kg.LinkSet{d.Split.Train, d.Split.Valid, d.Split.Test} {
		for _, l := range set.Links {
			s, t := src.Row(l.Source), tgt.Row(l.Target)
			for j := range t {
				t[j] = s[j] + noise*rng.NormFloat64()
			}
			linked[l.Target] = true
		}
	}
	for i := 0; i < tgt.Rows(); i++ {
		if !linked[i] {
			draw(tgt.Row(i))
		}
	}
	return &embed.Embeddings{Source: src, Target: tgt}
}

// served is one server opened on a snapshot file.
type served struct {
	path       string
	srv        *server.Server
	h          http.Handler
	rows, cols int
}

func openServed(path string) (*served, error) {
	srv, err := server.NewMapped(path, server.Config{})
	if err != nil {
		return nil, fmt.Errorf("open snapshot: %w", err)
	}
	rows, cols := srv.Dims()
	return &served{path: path, srv: srv, h: srv.Handler(), rows: rows, cols: cols}, nil
}

func (s *served) close() error { return s.srv.Close() }

// reqResult is one sent request, timed from its due time.
type reqResult struct {
	due, start, end time.Time
	row, k          int
	status          int
	body            []byte // kept only for the sampled requests
}

func (r *reqResult) latency() time.Duration { return r.end.Sub(r.due) }

// topkBody is the part of a /match/topk response the checks read.
type topkBody struct {
	Row     int `json:"row"`
	K       int `json:"k"`
	Results []struct {
		Col   int     `json:"col"`
		Score float64 `json:"score"`
	} `json:"results"`
}

type alignBody struct {
	Matcher   string `json:"matcher"`
	Pairs     int    `json:"pairs"`
	Abstained int    `json:"abstained"`
	ElapsedMS int64  `json:"elapsed_ms"`
	Matches   []struct {
		Source int     `json:"source"`
		Target int     `json:"target"`
		Score  float64 `json:"score"`
	} `json:"matches"`
}

// traffic draws the rows and ks of n point queries: rows Zipf-distributed
// over a seeded permutation of the source rows, k = 10 for three in four
// requests and 50 otherwise.
func traffic(rng *rand.Rand, rows, n int, zipf float64) (rs, ks []int) {
	perm := rng.Perm(rows)
	z := rand.NewZipf(rng, zipf, 1, uint64(rows-1))
	rs, ks = make([]int, n), make([]int, n)
	for i := range rs {
		rs[i] = perm[z.Uint64()]
		ks[i] = 10
		if rng.Intn(4) == 0 {
			ks[i] = 50
		}
	}
	return rs, ks
}

// phase is one open-loop interval of point queries (and optional /align).
type phase struct {
	rate    float64
	start   time.Time // the first request's due time
	dur     time.Duration
	topk    []reqResult
	align   []reqResult
	backlog int // point queries still in flight when the interval ended
}

// do sends one request through the handler in process and records it.
func (s *served) do(r *reqResult, req *http.Request, keepBody bool, tr *tracer, id int64) {
	r.start = time.Now()
	rec := httptest.NewRecorder()
	s.h.ServeHTTP(rec, req)
	r.end = time.Now()
	r.status = rec.Code
	if keepBody {
		r.body = rec.Body.Bytes()
	}
	if tr != nil {
		parent := tr.record("serve.request", 0, id, r.due, r.end)
		tr.record("server.handle", parent, id, r.start, r.end)
	}
}

// openLoop sends rate point queries per second for dur, each at its due
// time regardless of earlier answers, plus one /align every alignEvery
// (none when zero). It returns after every request has been answered.
func (s *served) openLoop(rng *rand.Rand, spec serveSpec, rate float64, dur, alignEvery time.Duration, sample float64, tr *tracer, reqBase int64) *phase {
	n := int(rate * dur.Seconds())
	rows, ks := traffic(rng, s.rows, n, spec.Zipf)
	keep := make([]bool, n)
	for i := range keep {
		keep[i] = rng.Float64() < sample
	}
	p := &phase{rate: rate, dur: dur, topk: make([]reqResult, n)}
	var wg sync.WaitGroup
	t0 := time.Now().Add(2 * time.Millisecond)
	p.start = t0
	if alignEvery > 0 {
		nAlign := int(math.Ceil(dur.Seconds() / alignEvery.Seconds()))
		p.align = make([]reqResult, nAlign)
		body := []byte(fmt.Sprintf(`{"matcher":%q}`, spec.AlignMatcher))
		wg.Add(1)
		go func() {
			defer wg.Done()
			var aw sync.WaitGroup
			for j := range p.align {
				r := &p.align[j]
				r.due = t0.Add(time.Duration(j) * alignEvery)
				time.Sleep(time.Until(r.due))
				aw.Add(1)
				go func(id int64) {
					defer aw.Done()
					req, _ := http.NewRequest(http.MethodPost, "/align", bytes.NewReader(body))
					s.do(r, req, true, tr, id)
				}(reqBase + int64(n) + int64(j) + 1)
			}
			aw.Wait()
		}()
	}
	for i := 0; i < n; i++ {
		r := &p.topk[i]
		r.due = t0.Add(time.Duration(float64(i) * 1e9 / rate))
		r.row, r.k = rows[i], ks[i]
		if wait := time.Until(r.due); wait > 0 {
			time.Sleep(wait)
		}
		wg.Add(1)
		go func(id int64) {
			defer wg.Done()
			req, _ := http.NewRequest(http.MethodGet, "/match/topk?row="+strconv.Itoa(r.row)+"&k="+strconv.Itoa(r.k), nil)
			s.do(r, req, keep[id-reqBase-1], tr, id)
		}(reqBase + int64(i) + 1)
	}
	wg.Wait()
	endAt := t0.Add(dur)
	for i := range p.topk {
		if p.topk[i].end.After(endAt) && p.topk[i].due.Before(endAt) {
			p.backlog++
		}
	}
	return p
}

// phaseStats summarizes a phase's point queries against the latency limit.
type phaseStats struct {
	Rate    float64 `json:"rate"`
	Sent    int     `json:"sent"`
	OK      int     `json:"ok"`
	Late    int     `json:"late"`
	Shed    int     `json:"shed"`
	Failed  int     `json:"failed"`
	OKShare float64 `json:"ok_share"`
	OKRate  float64 `json:"ok_rps"`
	P50MS   float64 `json:"p50_ms"`
	P90MS   float64 `json:"p90_ms"`
	P95MS   float64 `json:"p95_ms"`
	P99MS   float64 `json:"p99_ms"`
	Backlog int     `json:"backlog"`
	// LateP99MS is how late the generator started the requests (p99).
	LateP99MS float64 `json:"late_p99_ms"`
	Meets     bool    `json:"meets_limit"`
	AlignOK   int     `json:"align_ok,omitempty"`
	AlignAll  int     `json:"align_sent,omitempty"`
}

func (p *phase) stats(limit time.Duration) phaseStats {
	st := phaseStats{Rate: p.rate, Sent: len(p.topk), Backlog: p.backlog}
	lat := make([]float64, 0, len(p.topk))
	late := make([]float64, len(p.topk))
	for i := range p.topk {
		r := &p.topk[i]
		late[i] = float64(r.start.Sub(r.due)) / 1e6
		switch {
		case r.status == http.StatusOK:
			lat = append(lat, float64(r.latency())/1e6)
			if r.latency() <= limit {
				st.OK++
			} else {
				st.Late++
			}
		case r.status == http.StatusTooManyRequests:
			st.Shed++
		default:
			st.Failed++
		}
	}
	st.OKShare = float64(st.OK) / float64(max(1, st.Sent))
	// Goodput over the wall time from the first due time to the last
	// answer, not the nominal duration: a backlog at the end stretches it.
	var wall time.Duration
	for i := range p.topk {
		wall = max(wall, p.topk[i].end.Sub(p.start))
	}
	st.OKRate = float64(st.OK) / max(wall, time.Millisecond).Seconds()
	st.LateP99MS = percentile(late, 0.99)
	st.P50MS, st.P90MS, st.P95MS, st.P99MS = percentile(lat, 0.5), percentile(lat, 0.9), percentile(lat, 0.95), percentile(lat, 0.99)
	st.Meets = st.OKShare >= 0.99 && float64(p.backlog) <= 0.01*float64(st.Sent)
	st.AlignAll = len(p.align)
	for i := range p.align {
		if p.align[i].status == http.StatusOK {
			st.AlignOK++
		}
	}
	return st
}

// mergeRounds folds one rate's rounds into one step: request counts are
// summed, shares, percentiles and backlog are medians over rounds.
func mergeRounds(rounds []phaseStats) phaseStats {
	out := phaseStats{Rate: rounds[0].Rate}
	var ok, okRate, p50, p90, p95, p99, backlog, late []float64
	for _, r := range rounds {
		late = append(late, r.LateP99MS)
		out.Sent += r.Sent
		out.OK += r.OK
		out.Late += r.Late
		out.Shed += r.Shed
		out.Failed += r.Failed
		ok = append(ok, r.OKShare)
		okRate = append(okRate, r.OKRate)
		p50 = append(p50, r.P50MS)
		p90 = append(p90, r.P90MS)
		p95 = append(p95, r.P95MS)
		p99 = append(p99, r.P99MS)
		backlog = append(backlog, float64(r.Backlog))
	}
	out.OKShare, out.OKRate = median(ok), median(okRate)
	out.P50MS, out.P90MS, out.P95MS, out.P99MS = median(p50), median(p90), median(p95), median(p99)
	out.Backlog, out.LateP99MS = int(median(backlog)), median(late)
	out.Meets = out.OKShare >= 0.99 && float64(out.Backlog) <= 0.01*float64(rounds[0].Sent)
	return out
}

// peakOKRate is the most requests per second the ladder saw answered 200
// within the latency limit, over its steps.
func peakOKRate(steps []phaseStats) float64 {
	var best float64
	for _, st := range steps {
		best = max(best, st.OKRate)
	}
	return best
}

// rateMeetingLimit is the highest ladder rate at which ≥ 99% of requests
// met the limit with no growing backlog, refined between the last passing
// and first failing step by interpolating the ok share to 0.99 on a
// log-rate scale. Below the first step it scales the first rate by its ok
// share.
func rateMeetingLimit(steps []phaseStats) float64 {
	if len(steps) == 0 {
		return 0
	}
	if !steps[0].Meets {
		return steps[0].Rate * steps[0].OKShare
	}
	for i := 1; i < len(steps); i++ {
		if steps[i].Meets {
			continue
		}
		lo, hi := steps[i-1], steps[i]
		frac := 0.0
		if d := lo.OKShare - hi.OKShare; d > 0 {
			frac = math.Min(1, math.Max(0, (lo.OKShare-0.99)/d))
		}
		return math.Exp(math.Log(lo.Rate) + frac*(math.Log(hi.Rate)-math.Log(lo.Rate)))
	}
	return steps[len(steps)-1].Rate
}

// refIndex answers point queries alone through ann.IVF.SearchQuant on a
// full load of the served snapshot, with the server's configuration.
type refIndex struct {
	snap           *snapshot.Snapshot
	ivf            *ann.IVF
	nprobe, factor int
	rerank         bool
}

func loadRef(path string) (*refIndex, error) {
	snap, err := snapshot.Load(path)
	if err != nil {
		return nil, err
	}
	if snap.FwdIndex == nil || snap.TgtQuant == nil || snap.Meta.ANN == nil || snap.Meta.Quant == nil {
		return nil, fmt.Errorf("snapshot %s lacks the IVF or SQ8 sections it was built with", path)
	}
	ivf, err := ann.FromData(snap.FwdIndex)
	if err != nil {
		return nil, err
	}
	tq, err := quant.FromData(snap.TgtQuant)
	if err != nil {
		return nil, err
	}
	if err := ivf.AttachQuant(tq); err != nil {
		return nil, err
	}
	return &refIndex{snap: snap, ivf: ivf, nprobe: min(snap.Meta.ANN.NProbe, ivf.Clusters()),
		factor: snap.Meta.Quant.RerankFactor, rerank: snap.Meta.Quant.Rerank}, nil
}

// candGraphProbe times the tile source the server's /align top tier runs
// on — the snapshot's IVF indexes with the SQ8 scan switched on, over the
// exact stream — through matrix.BuildCandGraphs at C=c with the reverse
// graph. It returns the stream preparation and the build times.
func (r *refIndex) candGraphProbe(c int, tr *tracer) (stream, build time.Duration, err error) {
	var st *sim.Stream
	if stream, err = timed(tr, "sim.stream", 0, func() error {
		st, err = sim.NewStreamPrepared(r.snap.SrcTable, r.snap.TgtTable, sim.Cosine)
		return err
	}); err != nil {
		return 0, 0, err
	}
	rev, err := ann.FromData(r.snap.RevIndex)
	if err != nil {
		return 0, 0, err
	}
	m := r.snap.Meta.ANN
	src, err := ann.NewSourceWithIndexes(st, r.snap.SrcTable, r.snap.TgtTable, ann.Config{
		Clusters: r.snap.FwdIndex.K, NProbe: r.nprobe, SampleSize: m.SampleSize, Iters: m.Iters, Seed: m.Seed,
	}, r.ivf, rev)
	if err != nil {
		return 0, 0, err
	}
	srcQ, err := quant.FromData(r.snap.SrcQuant)
	if err != nil {
		return 0, 0, err
	}
	tgtQ, err := quant.FromData(r.snap.TgtQuant)
	if err != nil {
		return 0, 0, err
	}
	if err := src.EnableQuant(srcQ, tgtQ, r.factor, r.rerank); err != nil {
		return 0, 0, err
	}
	build, err = timed(tr, "matrix.candgraph", 0, func() error {
		_, _, err := matrix.BuildCandGraphs(context.Background(), src, c, c)
		return err
	})
	return stream, build, err
}

func (r *refIndex) search(row, k int) (matrix.TopK, error) {
	q, err := matrix.NewFromData(1, r.snap.SrcTable.Cols(), r.snap.SrcTable.Row(row))
	if err != nil {
		return matrix.TopK{}, err
	}
	res, err := r.ivf.SearchQuant(context.Background(), q, k, r.nprobe, r.factor, r.rerank)
	if err != nil {
		return matrix.TopK{}, err
	}
	return res[0], nil
}

// exactTopK is the float64 exhaustive top-k of one source row.
func (r *refIndex) exactTopK(row, k int) []int {
	sel := matrix.NewBoundedTopK(k)
	q := r.snap.SrcTable.Row(row)
	for j := 0; j < r.snap.TgtTable.Rows(); j++ {
		var dot float64
		for d, v := range r.snap.TgtTable.Row(j) {
			dot += q[d] * v
		}
		sel.Offer(dot, j)
	}
	return sel.Finalize().Indices
}

// checkServedTopK compares every kept /match/topk body with the reference
// answer and returns the median time of the reference searches.
func checkServedTopK(ref *refIndex, reqs []*reqResult) (time.Duration, error) {
	var times []float64
	for _, r := range reqs {
		var b topkBody
		if err := json.Unmarshal(r.body, &b); err != nil {
			return 0, fmt.Errorf("topk row %d: decode response: %w", r.row, err)
		}
		if b.Row != r.row {
			return 0, fmt.Errorf("topk row %d: response is for row %d", r.row, b.Row)
		}
		if k := min(r.k, ref.snap.TgtTable.Rows()); b.K != k {
			return 0, fmt.Errorf("topk row %d: response has k %d, want %d", r.row, b.K, k)
		}
		start := time.Now()
		want, err := ref.search(r.row, r.k)
		times = append(times, float64(time.Since(start)))
		if err != nil {
			return 0, err
		}
		cols, scores := make([]int, len(b.Results)), make([]float64, len(b.Results))
		for i, e := range b.Results {
			cols[i], scores[i] = e.Col, e.Score
		}
		if err := checkTopK(r.row, r.k, cols, scores, want); err != nil {
			return 0, err
		}
	}
	return time.Duration(median(times)), nil
}

// checkAlign verifies one /align answer: 200, every source row either
// paired or reported abstained, the pair count the run's first /align
// gave (wantPairs; negative for the first), and pairs that pass
// checkPairs for the requested matcher. It returns the pairs.
func checkAlign(matcher string, r *reqResult, rows, cols, wantPairs int) ([]core.Pair, *alignBody, error) {
	if r.status != http.StatusOK {
		return nil, nil, fmt.Errorf("/align: status %d: %s", r.status, r.body)
	}
	var b alignBody
	if err := json.Unmarshal(r.body, &b); err != nil {
		return nil, nil, fmt.Errorf("/align: decode response: %w", err)
	}
	if b.Pairs != len(b.Matches) || b.Pairs+b.Abstained != rows {
		return nil, nil, fmt.Errorf("/align %s: %d pairs (%d listed) + %d abstained, want %d rows", b.Matcher, b.Pairs, len(b.Matches), b.Abstained, rows)
	}
	if wantPairs >= 0 && b.Pairs != wantPairs {
		return nil, nil, fmt.Errorf("/align %s: %d pairs, the first /align gave %d", b.Matcher, b.Pairs, wantPairs)
	}
	pairs := make([]core.Pair, len(b.Matches))
	for i, m := range b.Matches {
		pairs[i] = core.Pair{Source: m.Source, Target: m.Target, Score: m.Score}
	}
	if err := checkPairs(matcher, pairs, rows, cols); err != nil {
		return nil, nil, fmt.Errorf("/align: %w", err)
	}
	return pairs, &b, nil
}

// recallAt10 is the mean recall@10 of served answers against the exact
// float64 scan over nRows seeded rows.
func (s *served) recallAt10(ref *refIndex, rng *rand.Rand, nRows int) (float64, error) {
	var total float64
	for i := 0; i < nRows; i++ {
		row := rng.Intn(s.rows)
		req, _ := http.NewRequest(http.MethodGet, "/match/topk?row="+strconv.Itoa(row)+"&k=10", nil)
		rec := httptest.NewRecorder()
		s.h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			return 0, fmt.Errorf("recall probe row %d: status %d", row, rec.Code)
		}
		var b topkBody
		if err := json.Unmarshal(rec.Body.Bytes(), &b); err != nil {
			return 0, err
		}
		exact := make(map[int]bool, 10)
		for _, c := range ref.exactTopK(row, 10) {
			exact[c] = true
		}
		hit := 0
		for _, e := range b.Results {
			if exact[e.Col] {
				hit++
			}
		}
		total += float64(hit) / 10
	}
	return total / float64(nRows), nil
}

// alignOnce sends one /align with the server idle.
func (s *served) alignOnce(matcher string, tr *tracer, id int64) *reqResult {
	r := &reqResult{due: time.Now()}
	req, _ := http.NewRequest(http.MethodPost, "/align", bytes.NewReader([]byte(fmt.Sprintf(`{"matcher":%q}`, matcher))))
	s.do(r, req, true, tr, id)
	return r
}
