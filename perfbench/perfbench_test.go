package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"entmatcher/internal/core"
	"entmatcher/internal/matrix"
)

// tiny shrinks a workload to smoke-test size: small datasets and a rate
// ladder a test machine sustains.
func tiny(w *workload) *workload {
	c := *w
	c.Serve.Scale = 0.005
	if c.Pipeline != nil {
		c.Scale = 0.02
	} else {
		c.Scale = c.Serve.Scale
	}
	c.SetupReps, c.SetupGroup = 2, 1
	c.Serve.Rates = []float64{250, 500, 1000, 2000, 4000}
	c.Serve.Rounds = 1
	c.Serve.LatencyRate = 1000
	c.Serve.MixedRate = 250
	c.Serve.RecallRows = 20
	c.Serve.CheckSample = 20
	return &c
}

func TestSmokeEveryMetricWithUnit(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	dir := t.TempDir()
	for _, name := range workloadNames() {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", name, trace), func(t *testing.T) {
				w := tiny(workloads()[name])
				out, err := w.run(runOpts{root: "..", seed: 3, seconds: 2, trace: trace, workdir: dir})
				if err != nil {
					t.Fatalf("run: %v", err)
				}
				if out.checkErr != nil {
					t.Fatalf("correctness: %v", out.checkErr)
				}
				if out.attempted < 1 || out.failed != 0 {
					t.Fatalf("attempted %d failed %d", out.attempted, out.failed)
				}
				want := endToEnd
				if trace {
					want = perLayer
				}
				if len(out.metrics) != len(want) {
					t.Errorf("emitted %d metrics, want %d", len(out.metrics), len(want))
				}
				for _, m := range want {
					got, ok := out.metrics[m.name]
					if !ok {
						t.Errorf("metric %s missing", m.name)
						continue
					}
					if got.Unit != m.unit {
						t.Errorf("metric %s unit %q, want %q", m.name, got.Unit, m.unit)
					}
					if !trace && got.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", m.name, got.Value)
					}
				}
				if trace && len(out.spans) == 0 {
					t.Error("traced run recorded no spans")
				}
			})
		}
	}
}

func TestRunPrintsResultLine(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"--workload", "nope"}, &stdout, &stderr); code != 2 {
		t.Fatalf("unknown workload: exit %d, want 2", code)
	}
	if stdout.Len() != 0 {
		t.Fatalf("unknown workload printed a result: %q", stdout.String())
	}
}

func pairs(ps ...[2]int) []core.Pair {
	out := make([]core.Pair, len(ps))
	for i, p := range ps {
		out[i] = core.Pair{Source: p[0], Target: p[1], Score: float64(i) / 10}
	}
	return out
}

func TestCheckPairsRejectsCorruption(t *testing.T) {
	good := pairs([2]int{0, 1}, [2]int{1, 0}, [2]int{2, 2})
	if err := checkPairs("Hun.", good, 3, 3); err != nil {
		t.Fatalf("valid pairs rejected: %v", err)
	}
	for name, c := range map[string]struct {
		matcher string
		pairs   []core.Pair
	}{
		"out of range":      {"DInf", pairs([2]int{0, 3})},
		"negative":          {"DInf", pairs([2]int{-1, 0})},
		"source twice":      {"DInf", pairs([2]int{0, 0}, [2]int{0, 1})},
		"target twice 1:1":  {"Hun.", pairs([2]int{0, 0}, [2]int{1, 0})},
		"target twice SMat": {"SMat", pairs([2]int{0, 2}, [2]int{1, 2})},
	} {
		if err := checkPairs(c.matcher, c.pairs, 3, 3); err == nil {
			t.Errorf("%s: corruption not detected", name)
		}
	}
	// DInf does not promise 1-to-1: a shared target is legal.
	if err := checkPairs("DInf", pairs([2]int{0, 0}, [2]int{1, 0}), 3, 3); err != nil {
		t.Errorf("DInf shared target rejected: %v", err)
	}
}

func TestCheckRepeatRejectsPermutedPairs(t *testing.T) {
	a := pairs([2]int{0, 1}, [2]int{1, 0}, [2]int{2, 2})
	if err := checkRepeat("Hun.", a, append([]core.Pair(nil), a...)); err != nil {
		t.Fatalf("identical repeat rejected: %v", err)
	}
	permuted := []core.Pair{a[1], a[0], a[2]}
	if err := checkRepeat("Hun.", a, permuted); err == nil {
		t.Error("permuted pair list not detected")
	}
	shifted := append([]core.Pair(nil), a...)
	shifted[2].Score += 1e-12
	if err := checkRepeat("Hun.", a, shifted); err == nil {
		t.Error("changed score not detected")
	}
	if err := checkRepeat("Hun.", a, a[:2]); err == nil {
		t.Error("missing pair not detected")
	}
}

func TestCheckTopKRejectsWrongID(t *testing.T) {
	want := matrix.TopK{Indices: []int{4, 2}, Values: []float64{0.9, 0.5}}
	if err := checkTopK(0, 2, []int{4, 2}, []float64{0.9, 0.5}, want); err != nil {
		t.Fatalf("identical answer rejected: %v", err)
	}
	if err := checkTopK(0, 2, []int{4, 3}, []float64{0.9, 0.5}, want); err == nil {
		t.Error("wrong top-k id not detected")
	}
	if err := checkTopK(0, 2, []int{4, 2}, []float64{0.9, 0.5000000001}, want); err == nil {
		t.Error("wrong score bits not detected")
	}
	if err := checkTopK(0, 2, []int{4}, []float64{0.9}, want); err == nil {
		t.Error("short answer not detected")
	}
}

func alignReq(status int, body any) *reqResult {
	b, _ := json.Marshal(body)
	return &reqResult{status: status, body: b}
}

func TestCheckAlignRejectsCorruption(t *testing.T) {
	type m = map[string]any
	match := func(s, t int) m { return m{"source": s, "target": t, "score": 0.5} }
	good := m{"matcher": "Hun.-sparse@quant", "pairs": 2, "abstained": 1, "matches": []m{match(0, 1), match(2, 0)}}
	if _, _, err := checkAlign("Hun.", alignReq(200, good), 3, 3, -1); err != nil {
		t.Fatalf("valid /align rejected: %v", err)
	}
	for name, c := range map[string]struct {
		r    *reqResult
		want int
	}{
		"status 504":       {alignReq(http.StatusGatewayTimeout, m{"error": "deadline"}), -1},
		"rows unaccounted": {alignReq(200, m{"pairs": 2, "abstained": 0, "matches": []m{match(0, 1), match(2, 0)}}), -1},
		"count mismatch":   {alignReq(200, good), 3},
		"target twice":     {alignReq(200, m{"pairs": 2, "abstained": 1, "matches": []m{match(0, 1), match(2, 1)}}), -1},
		"listed != pairs":  {alignReq(200, m{"pairs": 3, "abstained": 0, "matches": []m{match(0, 1)}}), -1},
	} {
		if _, _, err := checkAlign("Hun.", c.r, 3, 3, c.want); err == nil {
			t.Errorf("%s: corruption not detected", name)
		}
	}
}

// TestServedTopKCheckRejectsWrongID serves a tiny snapshot, then corrupts
// one answer's column id and one answer's score before the check.
func TestServedTopKCheckRejectsWrongID(t *testing.T) {
	w := tiny(workloads()["serve-mixed"])
	d, err := generate(w.Profile, w.Scale, 5)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "tiny.snap")
	if err := buildSnapshot(d, syntheticEmbeddings(d, w.Serve.Dim, 5), path, 5); err != nil {
		t.Fatal(err)
	}
	srv, err := openServed(path)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.close()
	var reqs []*reqResult
	for row := 0; row < 5; row++ {
		r := &reqResult{row: row, k: 10, due: time.Now()}
		req, _ := http.NewRequest(http.MethodGet, fmt.Sprintf("/match/topk?row=%d&k=10", row), nil)
		srv.do(r, req, true, nil, 0)
		if r.status != http.StatusOK {
			t.Fatalf("row %d: status %d", row, r.status)
		}
		reqs = append(reqs, r)
	}
	ref, err := loadRef(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := checkServedTopK(ref, reqs); err != nil {
		t.Fatalf("served answers rejected: %v", err)
	}
	for name, corrupt := range map[string]func(string) string{
		"wrong id": func(b string) string {
			return strings.Replace(b, `"col":`, `"col":1`, 1)
		},
		"wrong score": func(b string) string {
			return strings.Replace(b, `"score":0.`, `"score":0.1`, 1)
		},
		"wrong k": func(b string) string {
			return strings.Replace(b, `"k":10`, `"k":9`, 1)
		},
	} {
		bad := *reqs[2]
		bad.body = []byte(corrupt(string(reqs[2].body)))
		if string(bad.body) == string(reqs[2].body) {
			t.Fatalf("%s: corruption did not change the body", name)
		}
		if _, err := checkServedTopK(ref, []*reqResult{reqs[0], &bad}); err == nil {
			t.Errorf("%s: corrupted /match/topk answer not detected", name)
		}
	}
	// An answer for k=10 to a request for k=50: the body is self-consistent,
	// so only the requested k exposes it.
	asked50 := *reqs[3]
	asked50.k = 50
	if _, err := checkServedTopK(ref, []*reqResult{&asked50}); err == nil {
		t.Error("a k=10 answer to a k=50 request was not detected")
	}
}

func TestSelfTimesSubtractsChildUnion(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "a", Start: 30, End: 50},  // overlaps the first child
		{ID: 4, Parent: 1, Name: "b", Start: 90, End: 120}, // runs past the parent
	}
	got := selfTimes(spans)
	if got["root"] != 50 {
		t.Errorf("root self time %v, want 50ns (100 - union [10,50] - [90,100])", got["root"])
	}
	if got["a"] != 50 || got["b"] != 30 {
		t.Errorf("leaf self times a=%v b=%v, want 50ns and 30ns", got["a"], got["b"])
	}
}

func TestLadderRates(t *testing.T) {
	steps := []phaseStats{
		{Rate: 1000, OKShare: 1, OKRate: 1000, Meets: true},
		{Rate: 2000, OKShare: 1, OKRate: 2000, Meets: true},
		{Rate: 4000, OKShare: 0.98, OKRate: 3920, Meets: false},
	}
	if got := peakOKRate(steps); got != 3920 {
		t.Errorf("peakOKRate = %v, want 3920", got)
	}
	got := rateMeetingLimit(steps)
	if want := 2000 * 1.4142135623730951; got < want-1 || got > want+1 {
		t.Errorf("rateMeetingLimit = %v, want the log-midpoint %v", got, want)
	}
	steps[2].Meets, steps[2].OKShare = true, 0.995
	if got := rateMeetingLimit(steps); got != 4000 {
		t.Errorf("all steps pass: rateMeetingLimit = %v, want the top rate", got)
	}
	if got := rateMeetingLimit([]phaseStats{{Rate: 1000, OKShare: 0.5}}); got != 500 {
		t.Errorf("first step fails: rateMeetingLimit = %v, want 500", got)
	}
}
