package corpus

import "math/rand"

// Every corpus script draws from math/rand's additive lagged Fibonacci
// generator, value for value as rand.NewSource(seed) yields it, so a
// script is a function of its seed alone. What costs is the seeding:
// rand's Seed walks 1,841 serial steps of a Lehmer LCG to fill all 607
// register words, while a 1 h script reads a few hundred of them.
// source seeds in O(1) instead and derives each register word the
// first time a draw reads it, jumping the LCG straight to the three
// states that word packs.
const (
	srcLen  = 607             // register words (math/rand's rngLen)
	srcTap  = 273             // tap lag (rngTap)
	srcFeed = srcLen - srcTap // the feed index a freshly seeded register starts at

	lcgMod = 1<<31 - 1 // the seeding LCG: x[n+1] = lcgMul*x[n] mod lcgMod
	lcgMul = 48271
	// lcgSkip is the number of LCG steps math/rand's Seed discards
	// before word 0; word i packs states lcgSkip+1+3i to lcgSkip+3+3i.
	lcgSkip = 20
)

var (
	// seedPow[i] holds lcgMul^n mod lcgMod for the three LCG states n
	// that register word i packs: state n of a stream seeded with x0
	// is seedPow·x0 mod lcgMod.
	seedPow [srcLen][3]uint32
	// cooked is math/rand's rngCooked: word i of a seeded register is
	// the packed LCG states XOR cooked[i].
	cooked [srcLen]int64
)

func init() {
	x := uint64(1)
	for n := 0; n < lcgSkip; n++ {
		x = x * lcgMul % lcgMod
	}
	for i := range seedPow {
		for j := range seedPow[i] {
			x = x * lcgMul % lcgMod
			seedPow[i][j] = uint32(x)
		}
	}

	// Recover rngCooked from the first srcLen outputs o[k] of the stream
	// seeded with 1, whose initial register is v[i] = packed(1, i) ^
	// cooked[i]. Draw k adds tap word srcLen-k to feed word srcFeed-k
	// (mod srcLen) and stores the sum in the feed word. Draws 1..srcTap
	// read two words no draw has written; every later draw's tap word
	// is the one draw k-srcTap wrote, o[k-srcTap], while its feed word
	// is still initial. Wrapping int64 arithmetic makes each step exact.
	ref := rand.NewSource(1).(rand.Source64)
	var o [srcLen + 1]int64
	for k := 1; k <= srcLen; k++ {
		o[k] = int64(ref.Uint64())
	}
	var v [srcLen]int64
	for k := srcTap + 1; k <= srcLen; k++ {
		v[(srcFeed-k+srcLen)%srcLen] = o[k] - o[k-srcTap]
	}
	for k := 1; k <= srcTap; k++ {
		v[srcFeed-k] = o[k] - v[srcLen-k]
	}
	for i := range cooked {
		cooked[i] = v[i] ^ packed(1, i)
	}
}

// packed is register word i of a stream seeded with x0 before the
// cooked mask: the three LCG states it packs, shifted and XORed as
// math/rand's Seed combines them.
func packed(x0 uint64, i int) int64 {
	p := &seedPow[i]
	a := uint64(p[0]) * x0 % lcgMod
	b := uint64(p[1]) * x0 % lcgMod
	c := uint64(p[2]) * x0 % lcgMod
	return int64(a<<40 ^ b<<20 ^ c)
}

// source is a rand.Source64 whose stream equals rand.NewSource(seed)'s
// for every seed, including after a reseed. Seed only records the
// reduced seed; the register words are derived as draws reach them.
// Draw k (from 1) reads feed word srcFeed-k and tap word srcLen-k:
// the tap word is untouched for k <= srcTap and the feed word for
// k <= srcFeed, and every later read finds a word an earlier draw
// stored, so the draw count alone says which words are fresh.
type source struct {
	x0        uint64 // the reduced seed: LCG state 0
	tap, feed int
	drawn     int // draws since Seed, counted up to srcFeed
	vec       [srcLen]int64
}

func newSource(seed int64) *source {
	s := new(source)
	s.Seed(seed)
	return s
}

// Seed reduces seed exactly as math/rand's Seed does.
func (s *source) Seed(seed int64) {
	seed %= lcgMod
	if seed < 0 {
		seed += lcgMod
	}
	if seed == 0 {
		seed = 89482311
	}
	s.x0 = uint64(seed)
	s.tap, s.feed, s.drawn = 0, srcFeed, 0
}

func (s *source) Int63() int64 { return int64(s.Uint64() &^ (1 << 63)) }

func (s *source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += srcLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += srcLen
	}
	if s.drawn < srcFeed {
		return s.fresh()
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// fresh is one of the first srcFeed draws after Seed, whose feed word
// (and, for the first srcTap, tap word) no draw has stored yet.
func (s *source) fresh() uint64 {
	s.drawn++
	tap := s.vec[s.tap]
	if s.drawn <= srcTap {
		tap = s.word(s.tap)
		s.vec[s.tap] = tap
	}
	x := s.word(s.feed) + tap
	s.vec[s.feed] = x
	return uint64(x)
}

// word is register word i as Seed leaves it.
func (s *source) word(i int) int64 { return packed(s.x0, i) ^ cooked[i] }
