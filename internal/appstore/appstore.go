// Package appstore generates a synthetic Google Play corpus for the
// paper's Figure 2 study: 1,124 popular apps across 28 categories,
// inspected for (1) exported components, (2) the WAKE_LOCK permission and
// (3) the WRITE_SETTINGS permission.
//
// The paper collected real APKs and ran APKTool to extract each
// AndroidManifest.xml; we generate manifests whose population rates match
// the reported marginals (72 % exported, 81 % WAKE_LOCK, 21 %
// WRITE_SETTINGS), serialize each to an AndroidManifest.xml document, and
// run the same extract-and-inspect pipeline over the XML.
package appstore

import (
	"fmt"
	"math/rand"

	"repro/internal/manifest"
)

// The paper's corpus parameters.
const (
	// DefaultCorpusSize is the number of collected apps.
	DefaultCorpusSize = 1124
	// NumCategories is the number of Play-store categories.
	NumCategories = 28
	// RateExported is the fraction of apps with an exported component.
	RateExported = 0.72
	// RateWakeLock is the fraction requesting WAKE_LOCK.
	RateWakeLock = 0.81
	// RateWriteSettings is the fraction requesting WRITE_SETTINGS.
	RateWriteSettings = 0.21
)

// Categories lists 28 Play-store categories, including the ones the
// paper names (game, business, finance).
var Categories = []string{
	"Game", "Business", "Finance", "Communication", "Social",
	"Productivity", "Tools", "Entertainment", "Music", "Video",
	"Photography", "Shopping", "Travel", "Maps", "News",
	"Books", "Education", "Health", "Fitness", "Lifestyle",
	"Weather", "Sports", "Food", "Medical", "Parenting",
	"Art", "Comics", "Personalization",
}

// APK is one generated app package: the manifest and its serialized
// AndroidManifest.xml document, as APKTool would recover it.
type APK struct {
	Manifest    *manifest.Manifest
	ManifestXML []byte
}

// Corpus is a generated app-store sample.
type Corpus struct {
	APKs []APK
}

// Generate builds a corpus of n apps whose attribute rates match the
// paper's reported marginals exactly (up to rounding) while the overlap
// between attributes is randomized by seed.
func Generate(n int, seed int64) (*Corpus, error) {
	if n <= 0 {
		return nil, fmt.Errorf("appstore: corpus size must be positive, got %d", n)
	}
	rng := rand.New(rand.NewSource(seed))

	exported := pickSet(rng, n, RateExported)
	wakeLock := pickSet(rng, n, RateWakeLock)
	writeSettings := pickSet(rng, n, RateWriteSettings)

	c := &Corpus{APKs: make([]APK, 0, n)}
	for i := 0; i < n; i++ {
		cat := Categories[i%NumCategories]
		b := manifest.NewBuilder(
			fmt.Sprintf("com.store.%s.app%04d", sanitizeCat(cat), i),
			fmt.Sprintf("%s App %d", cat, i),
		).Category(cat)

		if wakeLock[i] {
			b.Permission(manifest.PermWakeLock)
		}
		if writeSettings[i] {
			b.Permission(manifest.PermWriteSettings)
		}

		// Every app has a launcher activity; whether anything is
		// exported beyond the implicit launcher entry is the property
		// under study, so the launcher activity's exported flag follows
		// the assignment and extra components are sprinkled in.
		b.Activity("MainActivity", exported[i], manifest.IntentFilter{
			Actions:    []string{"android.intent.action.MAIN"},
			Categories: []string{"android.intent.category.LAUNCHER"},
		})
		nExtra := rng.Intn(4)
		for j := 0; j < nExtra; j++ {
			name := fmt.Sprintf("Extra%d", j)
			exp := exported[i] && rng.Intn(2) == 0
			switch rng.Intn(3) {
			case 0:
				b.Activity(name, exp)
			case 1:
				b.Service(name, exp)
			case 2:
				b.Receiver(name, exp)
			}
		}

		m, err := b.Build()
		if err != nil {
			return nil, err
		}
		xml, err := m.MarshalXMLDoc()
		if err != nil {
			return nil, err
		}
		c.APKs = append(c.APKs, APK{Manifest: m, ManifestXML: xml})
	}
	return c, nil
}

// pickSet returns a boolean slice with exactly round(rate*n) true values
// at random positions.
func pickSet(rng *rand.Rand, n int, rate float64) []bool {
	k := int(float64(rate*float64(n)) + 0.5)
	out := make([]bool, n)
	perm := rng.Perm(n)
	for _, idx := range perm[:k] {
		out[idx] = true
	}
	return out
}

func sanitizeCat(c string) string {
	out := make([]rune, 0, len(c))
	for _, r := range c {
		if r >= 'A' && r <= 'Z' {
			r += 'a' - 'A'
		}
		if r >= 'a' && r <= 'z' {
			out = append(out, r)
		}
	}
	return string(out)
}

// StudyResult holds the Figure 2 marginals recovered by inspecting the
// serialized manifests.
type StudyResult struct {
	Total             int
	Exported          int
	WakeLock          int
	WriteSettings     int
	PerCategory       map[string]int // apps per category
	ExportedRate      float64
	WakeLockRate      float64
	WriteSettingsRate float64
}

// Inspect runs the APKTool-equivalent pipeline: parse every serialized
// AndroidManifest.xml and answer the paper's three questions.
func Inspect(c *Corpus) (*StudyResult, error) {
	res := &StudyResult{Total: len(c.APKs), PerCategory: make(map[string]int)}
	for i := range c.APKs {
		m, err := manifest.ParseXMLDoc(c.APKs[i].ManifestXML)
		if err != nil {
			return nil, fmt.Errorf("appstore: apk %d: %w", i, err)
		}
		res.PerCategory[m.Category]++
		if m.HasExportedComponent() {
			res.Exported++
		}
		if m.HasPermission(manifest.PermWakeLock) {
			res.WakeLock++
		}
		if m.HasPermission(manifest.PermWriteSettings) {
			res.WriteSettings++
		}
	}
	if res.Total > 0 {
		res.ExportedRate = float64(res.Exported) / float64(res.Total)
		res.WakeLockRate = float64(res.WakeLock) / float64(res.Total)
		res.WriteSettingsRate = float64(res.WriteSettings) / float64(res.Total)
	}
	return res, nil
}
