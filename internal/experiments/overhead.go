package experiments

import (
	"repro/internal/antutu"
	"repro/internal/microbench"
)

// Fig10Result wraps the micro benchmark results.
type Fig10Result struct {
	Results []microbench.Result
}

// Render prints the Figure 10 table.
func (r *Fig10Result) Render() string {
	return "=== Figure 10: boxplot of time cost ===\n" + microbench.Render(r.Results)
}

// Fig10 runs the Table I micro operations, 50 reps each, under the three
// configurations.
func Fig10() (*Fig10Result, error) {
	return Fig10WithReps(microbench.DefaultReps)
}

// Fig10WithReps is Fig10 with a configurable rep count.
func Fig10WithReps(reps int) (*Fig10Result, error) {
	results, err := microbench.Run(reps)
	if err != nil {
		return nil, err
	}
	return &Fig10Result{Results: results}, nil
}

// Fig11Result wraps the AnTuTu comparison.
type Fig11Result struct {
	Comparison antutu.Comparison
}

// Render prints the Figure 11 table.
func (r *Fig11Result) Render() string { return r.Comparison.Render() }

// Fig11 runs the AnTuTu-style benchmark on stock Android and E-Android
// devices.
func Fig11() (*Fig11Result, error) {
	return Fig11WithConfig(antutu.Config{})
}

// Fig11WithConfig is Fig11 with workload sizes under caller control.
func Fig11WithConfig(cfg antutu.Config) (*Fig11Result, error) {
	cmp, err := antutu.Compare(cfg)
	if err != nil {
		return nil, err
	}
	return &Fig11Result{Comparison: cmp}, nil
}
