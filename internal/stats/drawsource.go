package stats

import "math/rand"

// The samplers reseed a generator per stratum, per resample or per k and
// then take only a handful of values from it. A math/rand source spends
// almost all of that on Seed, which fills 607 state words from about 1 900
// serial LCG steps. DrawSource produces exactly the stream
// rand.NewSource(seed) would, but computes a state word only when a draw
// reads it, jumping the LCG ahead in O(1) instead of stepping it.
//
// The layout follows math/rand's rngSource (an additive lagged Fibonacci
// generator, x[n] = x[n-607] + x[n-273] mod 2^64), whose stream for a given
// seed is fixed by the Go 1 compatibility promise:
//
//   - Seed normalises the seed into [1, 2^31-2] and iterates the LCG
//     x ← 48271·x mod (2^31-1) 20 times, then three times per state word i,
//     so word i is built from the LCG values after 21+3i, 22+3i and 23+3i
//     steps, XORed with a fixed table ("cooked" below);
//   - draw k (from 1) adds words 334-k and 607-k. For k ≤ 273 neither word
//     has been overwritten by an earlier draw, so draw k needs only those
//     two seeded words.
//
// Past draw 273 the source falls back to a real rand.NewSource, advanced
// past the draws already served. TestDrawSourceMatchesMathRand holds the
// stream to math/rand's for every draw count and for edge-case seeds.
const (
	lcgMod   = 1<<31 - 1 // int32max in math/rand
	lcgMul   = 48271
	stateLen = 607
	stateTap = 273
	// lazyDraws is how many draws read only seeded state words.
	lazyDraws = stateTap
)

var (
	// lcgJump[i] is lcgMul^(21+3i) mod lcgMod: the factor taking the
	// normalised seed to the first of state word i's three LCG values.
	lcgJump [stateLen]uint64
	// cooked is the table math/rand XORs into each seeded state word.
	cooked [stateLen]int64
)

func init() {
	p := uint64(1)
	for s := 0; s < 21; s++ {
		p = p * lcgMul % lcgMod
	}
	for i := range lcgJump {
		lcgJump[i] = p
		p = p * lcgMul % lcgMod * lcgMul % lcgMod * lcgMul % lcgMod
	}
	// math/rand does not export its table, so recover it from the stream
	// of one seed: the first 607 draws determine the seeded state, and the
	// table is that state XOR the LCG part.
	const seed = 1
	src := rand.NewSource(seed).(rand.Source64)
	var x [stateLen + 1]int64 // x[k] is draw k
	for k := 1; k <= stateLen; k++ {
		x[k] = int64(src.Uint64())
	}
	var state [stateLen]int64
	for k := stateTap + 1; k <= 334; k++ {
		state[334-k] = x[k] - x[k-stateTap] // words 0..60
	}
	for k := 335; k <= stateLen; k++ {
		state[941-k] = x[k] - x[k-stateTap] // words 334..606
	}
	for k := 1; k <= stateTap; k++ {
		state[334-k] = x[k] - state[stateLen-k] // words 61..333
	}
	x0 := normSeed(seed)
	for i := range cooked {
		cooked[i] = state[i] ^ lcgWord(x0, i)
	}
}

// normSeed maps a seed to the LCG start value, as rngSource.Seed does.
func normSeed(seed int64) uint64 {
	seed %= lcgMod
	if seed < 0 {
		seed += lcgMod
	}
	if seed == 0 {
		seed = 89482311
	}
	return uint64(seed)
}

// lcgWord is the LCG part of state word i for start value x0.
func lcgWord(x0 uint64, i int) int64 {
	a := x0 * lcgJump[i] % lcgMod
	b := a * lcgMul % lcgMod
	c := b * lcgMul % lcgMod
	return int64(a)<<40 ^ int64(b)<<20 ^ int64(c)
}

// DrawSource is a rand.Source64 whose stream after Seed(s) equals
// rand.NewSource(s)'s. Seed costs O(1) and each of the first lazyDraws
// draws computes two state words, so a generator that is reseeded often and
// draws little from each seed should use one in place of rand.NewSource.
// The zero value must be seeded before its first draw. A DrawSource is not
// safe for concurrent use.
type DrawSource struct {
	seed  int64
	x0    uint64
	drawn int
	full  rand.Source64 // set once more than lazyDraws draws are taken
}

// NewDrawSource returns a DrawSource seeded with seed: a drop-in for
// rand.NewSource(seed).
func NewDrawSource(seed int64) *DrawSource {
	s := &DrawSource{}
	s.Seed(seed)
	return s
}

// Seed restarts the stream at seed.
func (s *DrawSource) Seed(seed int64) {
	s.seed, s.x0, s.drawn, s.full = seed, normSeed(seed), 0, nil
}

// Uint64 returns the next value of the stream.
func (s *DrawSource) Uint64() uint64 {
	if s.drawn < lazyDraws {
		s.drawn++
		k := s.drawn
		feed, tap := 334-k, stateLen-k
		return uint64(lcgWord(s.x0, feed)^cooked[feed]) + uint64(lcgWord(s.x0, tap)^cooked[tap])
	}
	if s.full == nil {
		s.full = rand.NewSource(s.seed).(rand.Source64)
		for i := 0; i < lazyDraws; i++ {
			s.full.Uint64()
		}
	}
	return s.full.Uint64()
}

// Int63 returns the next value of the stream with its top bit cleared.
func (s *DrawSource) Int63() int64 { return int64(s.Uint64() & (1<<63 - 1)) }
