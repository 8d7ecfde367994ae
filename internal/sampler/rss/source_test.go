package rss

import (
	"math"
	"math/rand"
	"testing"
)

// TestDrawSourceMatchesMathRand: after Seed(s), drawSource yields exactly
// rand.NewSource(s)'s stream, past the lazy draws into the fallback, for
// seeds at the normalisation edges and the subSeeds rss draws with.
func TestDrawSourceMatchesMathRand(t *testing.T) {
	seeds := []int64{
		0, 1, -1, 2, 7, 89482311, lcgMod - 1, lcgMod, lcgMod + 1, -lcgMod,
		2 * lcgMod, math.MaxInt64, math.MinInt64, math.MinInt64 + 1,
	}
	for h := 0; h < 40; h++ {
		for r := 0; r < 3; r++ {
			seeds = append(seeds, subSeed(1, h, r), subSeed(-7, h, r))
		}
	}
	var s drawSource
	for _, seed := range seeds {
		want := rand.NewSource(seed).(rand.Source64)
		s.Seed(seed)
		for k := 1; k <= 2*stateLen; k++ {
			if got, w := s.Uint64(), want.Uint64(); got != w {
				t.Fatalf("seed %d: draw %d = %#x, math/rand %#x", seed, k, got, w)
			}
		}
	}
}

// TestDrawSourceReseed: a rand.Rand over one drawSource, reseeded between
// uses as rss does, draws what a fresh math/rand generator per seed draws,
// through Intn's rejection loop and Int63.
func TestDrawSourceReseed(t *testing.T) {
	rng := rand.New(&drawSource{})
	for i, seed := range []int64{3, 3, 0, 99, -5, 3} {
		want := rand.New(rand.NewSource(seed))
		rng.Seed(seed)
		for k := 0; k < 50+100*i; k++ {
			n := 1 + k*k%1000
			if k%7 == 0 {
				n = 1<<30 + k // a bound that rejects often
			}
			if got, w := rng.Intn(n), want.Intn(n); got != w {
				t.Fatalf("seed %d: Intn(%d) #%d = %d, math/rand %d", seed, n, k, got, w)
			}
		}
		if got, w := rng.Int63(), want.Int63(); got != w {
			t.Fatalf("seed %d: Int63 = %d, math/rand %d", seed, got, w)
		}
	}
}
