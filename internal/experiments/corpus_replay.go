package experiments

import (
	"context"

	"repro/internal/corpus"
	"repro/internal/corpus/replay"
)

// ExtCorpusReps is the registry entry's per-cell repetition count.
// Smaller than the committed BENCH_corpus.json artifact's (40): the
// experiment is the interactive view of the corpus — it renders the
// full 16-cell grid with honest intervals in about a second — while
// the artifact run is the one CI gates bind to.
const ExtCorpusReps = 10

// ExtCorpus replays the full generated scenario corpus — every
// (archetype × attack-variant) cell — through the fleet runner with the
// watchdog attached and reports per-cell detection and false-positive
// rates with Wilson 95% confidence intervals.
func ExtCorpus() (*replay.Result, error) {
	return replay.Run(context.Background(), replay.Options{
		Reps:    ExtCorpusReps,
		Horizon: corpus.MinHorizon,
	})
}
