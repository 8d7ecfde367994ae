package stats

import (
	"math"
	"math/rand"
	"testing"
)

// TestDrawSourceMatchesMathRand: after Seed(s), DrawSource yields exactly
// rand.NewSource(s)'s stream, past the lazy draws into the fallback, for
// seeds at the normalisation edges and arbitrary 64-bit seeds like the
// mixed ones the samplers derive per stratum and per k.
func TestDrawSourceMatchesMathRand(t *testing.T) {
	seeds := []int64{
		0, 1, -1, 2, 7, 89482311, lcgMod - 1, lcgMod, lcgMod + 1, -lcgMod,
		2 * lcgMod, math.MaxInt64, math.MinInt64, math.MinInt64 + 1,
	}
	mix := rand.New(rand.NewSource(41))
	for i := 0; i < 120; i++ {
		seeds = append(seeds, int64(mix.Uint64()))
	}
	var s DrawSource
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

// TestDrawSourceReseed: a rand.Rand over one DrawSource, reseeded between
// uses as rss does, draws what a fresh math/rand generator per seed draws,
// through Intn's rejection loop and Int63; NewDrawSource starts where
// rand.NewSource does.
func TestDrawSourceReseed(t *testing.T) {
	fresh, want := rand.New(NewDrawSource(-12)), rand.New(rand.NewSource(-12))
	for k := 0; k < 400; k++ {
		if got, w := fresh.Int63(), want.Int63(); got != w {
			t.Fatalf("NewDrawSource(-12): Int63 #%d = %d, math/rand %d", k, got, w)
		}
	}
	rng := rand.New(&DrawSource{})
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
