package main

import (
	"fmt"
	"math"

	"entmatcher/internal/core"
	"entmatcher/internal/matrix"
)

// oneToOne names the matchers whose output promises each target at most
// once (Table 2's "1-to-1" column, plus the sparse Hungarian twin).
var oneToOne = map[string]bool{"Hun.": true, "SMat": true, "Hun.-sparse": true}

// checkPairs verifies a matcher's output: every pair is inside the rows×cols
// score matrix, no source row is matched twice, and no target is matched
// twice when the matcher promises a 1-to-1 result.
func checkPairs(matcher string, pairs []core.Pair, rows, cols int) error {
	seenSrc := make([]bool, rows)
	seenTgt := make([]bool, cols)
	for i, p := range pairs {
		if p.Source < 0 || p.Source >= rows || p.Target < 0 || p.Target >= cols {
			return fmt.Errorf("%s: pair %d (%d,%d) outside %d×%d", matcher, i, p.Source, p.Target, rows, cols)
		}
		if math.IsNaN(p.Score) {
			return fmt.Errorf("%s: pair %d (%d,%d) has a NaN score", matcher, i, p.Source, p.Target)
		}
		if seenSrc[p.Source] {
			return fmt.Errorf("%s: source row %d matched twice", matcher, p.Source)
		}
		seenSrc[p.Source] = true
		if oneToOne[matcher] {
			if seenTgt[p.Target] {
				return fmt.Errorf("%s: target %d matched twice by a 1-to-1 matcher", matcher, p.Target)
			}
			seenTgt[p.Target] = true
		}
	}
	return nil
}

// checkRepeat verifies that a second in-process run returned exactly the
// pairs of the first, scores included.
func checkRepeat(matcher string, first, second []core.Pair) error {
	if len(first) != len(second) {
		return fmt.Errorf("%s: repeat returned %d pairs, first run %d", matcher, len(second), len(first))
	}
	for i := range first {
		a, b := first[i], second[i]
		if a.Source != b.Source || a.Target != b.Target || math.Float64bits(a.Score) != math.Float64bits(b.Score) {
			return fmt.Errorf("%s: repeat differs at pair %d: (%d,%d,%v) vs (%d,%d,%v)",
				matcher, i, a.Source, a.Target, a.Score, b.Source, b.Target, b.Score)
		}
	}
	return nil
}

// checkTopK verifies a served top-k answer against the reference answer
// computed alone: same columns in the same order, bit-identical scores.
func checkTopK(row, k int, cols []int, scores []float64, want matrix.TopK) error {
	if len(cols) != len(want.Indices) || len(scores) != len(want.Values) {
		return fmt.Errorf("topk row %d k %d: served %d results, reference %d", row, k, len(cols), len(want.Indices))
	}
	for i := range cols {
		if cols[i] != want.Indices[i] || math.Float64bits(scores[i]) != math.Float64bits(want.Values[i]) {
			return fmt.Errorf("topk row %d k %d: result %d is (%d,%v), reference (%d,%v)",
				row, k, i, cols[i], scores[i], want.Indices[i], want.Values[i])
		}
	}
	return nil
}
