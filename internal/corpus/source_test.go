package corpus

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// sourceSeeds are the seeds math/rand's seed reduction treats
// specially (zero, the modulus and its multiples, both int64 extremes)
// plus a few hundred others of both signs and every magnitude.
func sourceSeeds() []int64 {
	seeds := []int64{
		0, 1, -1, 89482311, -89482311,
		lcgMod, -lcgMod, 2 * lcgMod, -2 * lcgMod, lcgMod * lcgMod, lcgMod + 1, lcgMod - 1,
		1 << 31, -(1 << 31), math.MinInt64, math.MinInt64 + 1, math.MaxInt64, 0x5eedc0de,
	}
	r := rand.New(rand.NewSource(20261022))
	for len(seeds) < 320 {
		seed := r.Int63() >> r.Intn(63)
		if r.Intn(2) == 0 {
			seed = -seed
		}
		seeds = append(seeds, seed)
	}
	return seeds
}

// source yields rand.NewSource(seed)'s stream for every seed, through
// Uint64 and Int63, through rand.Rand's Int63n and Float64, and after
// reseeding a source that earlier seeds had drawn from (a different
// number of draws each time, so a reseed lands in every phase of the
// lazily filled register).
func TestSourceMatchesMathRand(t *testing.T) {
	const draws = 3*srcLen + 1
	got := newSource(0)
	gotRand := rand.New(newSource(0))
	for si, seed := range sourceSeeds() {
		got.Seed(seed)
		want := rand.NewSource(seed).(rand.Source64)
		for k := 1; k <= draws; k++ {
			if k%3 == 0 {
				if g, w := got.Int63(), want.Int63(); g != w {
					t.Fatalf("seed %d: Int63 draw %d = %d, math/rand %d", seed, k, g, w)
				}
				continue
			}
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("seed %d: Uint64 draw %d = %d, math/rand %d", seed, k, g, w)
			}
		}
		// Leave the source part-way through its fresh draws for the
		// next seed's reseed.
		for k := 0; k < si%(srcFeed+2); k++ {
			got.Uint64()
		}

		gotRand.Seed(seed)
		wantRand := rand.New(rand.NewSource(seed))
		for k := 1; k <= draws; k++ {
			n := int64(k)<<(k%40) + 1
			if g, w := gotRand.Int63n(n), wantRand.Int63n(n); g != w {
				t.Fatalf("seed %d: Int63n(%d) draw %d = %d, math/rand %d", seed, n, k, g, w)
			}
			if g, w := gotRand.Float64(), wantRand.Float64(); g != w {
				t.Fatalf("seed %d: Float64 draw %d = %v, math/rand %v", seed, k, g, w)
			}
		}
	}
}

// FuzzSourceMatchesMathRand reseeds a source that has drawn a
// fuzzer-chosen number of values under another seed and compares its
// next n draws with rand.NewSource(seed)'s.
func FuzzSourceMatchesMathRand(f *testing.F) {
	f.Add(int64(0), uint16(srcLen))
	f.Add(int64(math.MinInt64), uint16(3*srcLen))
	f.Add(int64(lcgMod), uint16(srcTap+1))
	f.Add(int64(0x5eedc0de), uint16(srcFeed+1))
	f.Fuzz(func(t *testing.T, seed int64, n uint16) {
		got := newSource(^seed)
		for k := 0; k < int(n)%(srcFeed+2); k++ {
			got.Uint64()
		}
		got.Seed(seed)
		want := rand.NewSource(seed).(rand.Source64)
		for k := 1; k <= int(n); k++ {
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("seed %d: draw %d = %d, math/rand %d", seed, k, g, w)
			}
		}
	})
}

// The seeding cost a corpus script pays: seed a reused source, then
// draw what a 1 h population script draws on average (132) or a whole
// register's worth (607).
func BenchmarkSeedAndDraw(b *testing.B) {
	for _, bc := range []struct {
		name string
		src  rand.Source64
	}{
		{"mathrand", rand.NewSource(1).(rand.Source64)},
		{"source", newSource(1)},
	} {
		for _, draws := range []int{132, srcLen} {
			b.Run(fmt.Sprintf("%s/%d", bc.name, draws), func(b *testing.B) {
				var sink uint64
				for i := 0; i < b.N; i++ {
					bc.src.Seed(int64(i))
					for k := 0; k < draws; k++ {
						sink += bc.src.Uint64()
					}
				}
				benchSink = sink
			})
		}
	}
}

var benchSink uint64
