// Command appstudy regenerates Figure 2: the Google Play corpus study.
// It generates 1,124 synthetic apps across 28 categories, serializes
// each app's AndroidManifest.xml, then runs the APKTool-equivalent
// extract-and-inspect pipeline over the documents.
//
// Usage:
//
//	appstudy
//	appstudy -n 5000 -seed 7
//	appstudy -categories        # also print the per-category breakdown
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"repro/internal/appstore"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "appstudy:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("appstudy", flag.ContinueOnError)
	n := fs.Int("n", appstore.DefaultCorpusSize, "corpus size")
	seed := fs.Int64("seed", 42, "corpus seed")
	cats := fs.Bool("categories", false, "print per-category breakdown")
	if err := fs.Parse(args); err != nil {
		return err
	}
	corpus, err := appstore.Generate(*n, *seed)
	if err != nil {
		return err
	}
	study, err := appstore.Inspect(corpus)
	if err != nil {
		return err
	}
	fmt.Printf("Figure 2: %d apps inspected\n", study.Total)
	fmt.Printf("  exported component: %4d (%.1f%%)\n", study.Exported, study.ExportedRate*100)
	fmt.Printf("  WAKE_LOCK:          %4d (%.1f%%)\n", study.WakeLock, study.WakeLockRate*100)
	fmt.Printf("  WRITE_SETTINGS:     %4d (%.1f%%)\n", study.WriteSettings, study.WriteSettingsRate*100)
	if *cats {
		names := make([]string, 0, len(study.PerCategory))
		for c := range study.PerCategory {
			names = append(names, c)
		}
		sort.Strings(names)
		fmt.Println("  per category:")
		for _, c := range names {
			fmt.Printf("    %-18s %d\n", c, study.PerCategory[c])
		}
	}
	return nil
}
