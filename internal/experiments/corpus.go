package experiments

import (
	"fmt"
	"strings"

	"repro/internal/appstore"
)

// Fig2Result wraps the corpus study with a Figure 2-style rendering.
type Fig2Result struct {
	Study *appstore.StudyResult
}

// Render prints the three bars of Figure 2.
func (r *Fig2Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== Figure 2: collected apps from Google Play ===\n")
	fmt.Fprintf(&b, "corpus: %d apps across %d categories\n",
		r.Study.Total, len(r.Study.PerCategory))
	bar := func(label string, frac float64) {
		n := int(float64(frac*40) + 0.5)
		fmt.Fprintf(&b, "%-22s %5.1f%% %s\n", label, frac*100, strings.Repeat("#", n))
	}
	bar("exported component", r.Study.ExportedRate)
	bar("WAKE_LOCK", r.Study.WakeLockRate)
	bar("WRITE_SETTINGS", r.Study.WriteSettingsRate)
	return b.String()
}

// Fig2 generates the synthetic corpus and runs the manifest-inspection
// pipeline over it.
func Fig2() (*Fig2Result, error) {
	corpus, err := appstore.Generate(appstore.DefaultCorpusSize, 42)
	if err != nil {
		return nil, err
	}
	study, err := appstore.Inspect(corpus)
	if err != nil {
		return nil, err
	}
	return &Fig2Result{Study: study}, nil
}
