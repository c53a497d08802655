package sim

import (
	"math"
	"math/rand"
	"testing"
)

// turnDraws covers more than one full turn of the 607-word register, so
// every word has been both read as a tap and rewritten as a feed.
const turnDraws = 1300

// drawEach draws n values from r, cycling through every draw kind the
// simulator's models reach (Uint64, Int63, Float64, NormFloat64,
// ExpFloat64, Int63n, Intn), and returns their bits.
func drawEach(r *rand.Rand, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		switch i % 7 {
		case 0:
			out[i] = r.Uint64()
		case 1:
			out[i] = uint64(r.Int63())
		case 2:
			out[i] = math.Float64bits(r.Float64())
		case 3:
			out[i] = math.Float64bits(r.NormFloat64())
		case 4:
			out[i] = math.Float64bits(r.ExpFloat64())
		case 5:
			out[i] = uint64(r.Int63n(1e12 + 39))
		default:
			out[i] = uint64(r.Intn(1000003))
		}
	}
	return out
}

// checkSeed compares the owned source seeded with seed against math/rand's
// own source, draw for draw.
func checkSeed(t testing.TB, seed int64, n int) {
	t.Helper()
	var src lfSource
	src.Seed(seed)
	got := drawEach(rand.New(&src), n)
	want := drawEach(rand.New(rand.NewSource(seed)), n)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("seed %d: draw %d (kind %d) = %#x, math/rand %#x", seed, i, i%7, got[i], want[i])
		}
	}
}

// TestStreamMatchesMathRand pins the owned lagged-Fibonacci source to
// math/rand's: the seed reduction's edges (0, the modulus and its
// multiples, which reduce to 0, the int64 extremes) and 10k pseudo-random
// seeds, each past a full register turn.
func TestStreamMatchesMathRand(t *testing.T) {
	const m = lfMod
	for _, seed := range []int64{
		0, 1, -1, 2, m - 1, m, -m, m + 1, -m - 1, 2 * m, -3 * m,
		math.MaxInt64 / m * m, math.MinInt64 / m * m,
		89482311, math.MaxInt64, math.MinInt64, math.MinInt64 + 1,
	} {
		checkSeed(t, seed, turnDraws)
	}
	seeds := rand.New(rand.NewSource(20260301))
	for i := 0; i < 10000; i++ {
		checkSeed(t, int64(seeds.Uint64()), turnDraws)
	}
}

// TestNewRandMatchesMathRand pins the stream constructors: NewRand(seed)
// and a counted stream are math/rand's sequence for splitmix64(seed).
func TestNewRandMatchesMathRand(t *testing.T) {
	for _, seed := range []uint64{0, 1, 42, 1 << 63, math.MaxUint64} {
		want := drawEach(rand.New(rand.NewSource(int64(splitmix64(seed)))), turnDraws)
		plain := drawEach(NewRand(seed).Rand, turnDraws)
		for i := range want {
			if plain[i] != want[i] {
				t.Fatalf("NewRand(%d): draw %d = %#x, math/rand %#x", seed, i, plain[i], want[i])
			}
		}
	}
}

// TestCountedRestoreMatchesMathRand restores counted streams at several
// positions, 0 and past a register turn included, and checks the rest of
// the stream against math/rand advanced by the same number of Int63 steps.
func TestCountedRestoreMatchesMathRand(t *testing.T) {
	const seed = 77
	for _, pos := range []uint64{0, 1, 272, 606, 607, 1300, 5000} {
		orig := NewCountedRand(seed)
		std := rand.New(rand.NewSource(int64(splitmix64(seed))))
		for i := uint64(0); i < pos; i++ {
			if a, b := orig.Int63(), std.Int63(); a != b {
				t.Fatalf("pos %d: Int63 %d = %d, math/rand %d", pos, i, a, b)
			}
		}
		s, draws, ok := orig.SnapshotState()
		if !ok || s != seed || draws != pos {
			t.Fatalf("pos %d: snapshot (%d, %d, %v)", pos, s, draws, ok)
		}
		restored := RestoreCountedRand(seed, draws)
		// Only Int63-derived kinds: a counted stream builds Uint64 from two
		// Int63 draws, so its Uint64 is not the plain stream's.
		for i := 0; i < turnDraws; i++ {
			want := std.Int63()
			if a, b := orig.Int63(), restored.Int63(); a != want || b != want {
				t.Fatalf("pos %d: draw %d: original %d, restored %d, math/rand %d", pos, i, a, b, want)
			}
		}
	}
}

// FuzzStreamSeed checks the owned source against math/rand for any int64
// seed, past a full register turn.
func FuzzStreamSeed(f *testing.F) {
	for _, seed := range []int64{0, 1, -1, lfMod, -lfMod, math.MaxInt64, math.MinInt64} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) { checkSeed(t, seed, turnDraws) })
}
