package corpus

import "math"

// Z95 is the two-sided 95% normal quantile used throughout the corpus
// gates.
const Z95 = 1.959963984540054

// Estimate is a binomial proportion with its Wilson score interval.
// The Wilson interval (Wilson 1927) is the right tool for the corpus
// gates because it stays honest at the extremes the corpus actually
// produces — 0 failures in N, or N detections in N — where the naive
// Wald interval collapses to a zero-width lie. CI gates compare the
// interval *bounds*, not Rate: "detection ≥ 90%" must hold even for
// the worst rate still compatible with the sample.
type Estimate struct {
	// K successes out of N trials.
	K int `json:"k"`
	N int `json:"n"`
	// Rate is the point estimate K/N.
	Rate float64 `json:"rate"`
	// Lo and Hi bound the Wilson score interval.
	Lo float64 `json:"lo"`
	Hi float64 `json:"hi"`
}

// Wilson computes the Wilson score interval for k successes in n trials
// at normal quantile z. n == 0 yields the vacuous [0, 1] interval with
// rate 0 — no data constrains nothing.
func Wilson(k, n int, z float64) Estimate {
	if n <= 0 {
		return Estimate{Lo: 0, Hi: 1}
	}
	nf := float64(n)
	p := float64(k) / nf
	z2 := z * z
	denom := 1 + z2/nf
	center := p + z2/(2*nf)
	half := float64(z * math.Sqrt(p*(1-p)/nf+z2/(4*nf*nf)))
	lo := (center - half) / denom
	hi := (center + half) / denom
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	return Estimate{K: k, N: n, Rate: p, Lo: lo, Hi: hi}
}
