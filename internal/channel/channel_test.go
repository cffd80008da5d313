package channel

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"

	"nplus/internal/cmplxmat"
)

func TestProfileTapPowersNormalized(t *testing.T) {
	for _, p := range []Profile{DefaultProfile, FlatProfile, {NumTaps: 8, Decay: 0.5}} {
		pw := p.tapPowers()
		if len(pw) != p.NumTaps {
			t.Fatalf("got %d taps", len(pw))
		}
		sum := 0.0
		for i, x := range pw {
			sum += x
			if i > 0 && x > pw[i-1] {
				t.Fatal("tap powers must decay")
			}
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Fatalf("tap powers sum to %g", sum)
		}
	}
}

func TestRayleighAveragePower(t *testing.T) {
	// Average per-antenna-pair channel power must match the requested
	// gain (law of large numbers over many draws).
	rng := rand.New(rand.NewSource(1))
	gain := 4.0
	var acc float64
	const draws = 2000
	for d := 0; d < draws; d++ {
		ch := NewRayleigh(rng, 2, 2, DefaultProfile, gain)
		for n := 0; n < 2; n++ {
			for m := 0; m < 2; m++ {
				for _, g := range ch.taps[n][m] {
					acc += real(g)*real(g) + imag(g)*imag(g)
				}
			}
		}
	}
	avg := acc / (draws * 4)
	if math.Abs(avg-gain) > 0.15*gain {
		t.Fatalf("average channel power %g, want ≈%g", avg, gain)
	}
}

func TestFreqResponseMatchesApplyTone(t *testing.T) {
	// Sending a complex exponential at bin k through Apply must scale
	// it by FreqResponse(k) in steady state.
	rng := rand.New(rand.NewSource(2))
	ch := NewRayleigh(rng, 2, 1, DefaultProfile, 1)
	fftSize := 64
	bin := 5
	length := 256
	tx := make([]complex128, length)
	for i := range tx {
		angle := 2 * math.Pi * float64(bin) * float64(i) / float64(fftSize)
		tx[i] = complex(math.Cos(angle), math.Sin(angle))
	}
	rx, err := ch.Apply([][]complex128{tx})
	if err != nil {
		t.Fatal(err)
	}
	h := ch.FreqResponse(bin, fftSize)
	// Past the channel tail the output is h·tone exactly.
	for n := 0; n < 2; n++ {
		for i := ch.MaxDelay() + 1; i < length; i++ {
			want := h.At(n, 0) * tx[i]
			if cmplx.Abs(rx[n][i]-want) > 1e-9 {
				t.Fatalf("antenna %d sample %d: got %v want %v", n, i, rx[n][i], want)
			}
		}
	}
}

func TestApplySuperposition(t *testing.T) {
	// The channel is linear: applying to a sum equals sum of
	// applications.
	rng := rand.New(rand.NewSource(3))
	ch := NewRayleigh(rng, 1, 2, DefaultProfile, 1)
	a := make([]complex128, 100)
	b := make([]complex128, 100)
	for i := range a {
		a[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		b[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	zero := make([]complex128, 100)
	rxA, _ := ch.Apply([][]complex128{a, zero})
	rxB, _ := ch.Apply([][]complex128{zero, b})
	rxAB, _ := ch.Apply([][]complex128{a, b})
	for i := range rxAB[0] {
		if cmplx.Abs(rxAB[0][i]-(rxA[0][i]+rxB[0][i])) > 1e-9 {
			t.Fatalf("superposition violated at %d", i)
		}
	}
}

func TestApplyValidation(t *testing.T) {
	ch := NewRayleigh(rand.New(rand.NewSource(4)), 1, 2, FlatProfile, 1)
	if _, err := ch.Apply([][]complex128{make([]complex128, 4)}); err == nil {
		t.Fatal("expected error for wrong stream count")
	}
	if _, err := ch.Apply([][]complex128{make([]complex128, 4), make([]complex128, 5)}); err == nil {
		t.Fatal("expected error for ragged streams")
	}
}

func TestReverseReciprocity(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ch := NewRayleigh(rng, 3, 2, DefaultProfile, 1)
	rev := ch.Reverse(nil)
	if rev.N != 2 || rev.M != 3 {
		t.Fatalf("reverse dims %d×%d", rev.N, rev.M)
	}
	// H_rev on any bin must equal H^T exactly (ideal reciprocity).
	for _, bin := range []int{0, 7, 33} {
		h := ch.FreqResponse(bin, 64)
		hr := rev.FreqResponse(bin, 64)
		if !hr.EqualApprox(h.Transpose(), 1e-12) {
			t.Fatalf("bin %d: reverse != transpose", bin)
		}
	}
}

// The reverse batch is the same sums in the same order as the copied
// reciprocal channel, so it must match bit for bit, not approximately.
func TestFreqResponsesIntoReverseIsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ch := NewRayleigh(rng, 3, 2, DefaultProfile, 1)
	rev := ch.Reverse(nil)
	bins := []int{1, 7, 33, 60}
	out := cmplxmat.NewBatch(len(bins), 2, 3)
	ch.FreqResponsesInto(out, bins, 64, true)
	for k, bin := range bins {
		want := rev.FreqResponse(bin, 64)
		for i := 0; i < 2; i++ {
			for j := 0; j < 3; j++ {
				if out[k].At(i, j) != want.At(i, j) {
					t.Fatalf("bin %d (%d,%d): %v, reversed channel gives %v", bin, i, j, out[k].At(i, j), want.At(i, j))
				}
			}
		}
	}
}

func TestReverseWithCalibrationError(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	ch := NewRayleigh(rng, 2, 2, FlatProfile, 1)
	calib := NewCalibration(rng, 3, 0.05)
	rev := ch.Reverse(calib)
	h := ch.FreqResponse(0, 64)
	hr := rev.FreqResponse(0, 64)
	// Not exactly equal, but close: per-entry relative error ~5%.
	if hr.EqualApprox(h.Transpose(), 1e-9) {
		t.Fatal("calibration error had no effect")
	}
	diff := hr.Sub(h.Transpose()).FrobeniusNorm() / h.FrobeniusNorm()
	if diff > 0.3 {
		t.Fatalf("calibration error too large: %g", diff)
	}
}

func TestAddNoisePower(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 200000
	x := make([]complex128, n)
	AddNoise(rng, x, 2.5)
	var acc float64
	for _, v := range x {
		acc += real(v)*real(v) + imag(v)*imag(v)
	}
	avg := acc / float64(n)
	if math.Abs(avg-2.5) > 0.1 {
		t.Fatalf("noise power %g, want 2.5", avg)
	}
	// Zero power must be a no-op.
	y := []complex128{1, 2}
	AddNoise(rng, y, 0)
	if y[0] != 1 || y[1] != 2 {
		t.Fatal("zero-power noise changed samples")
	}
}

func TestPerturbEstimateScalesWithSNR(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	h := cmplxmat.FromRows([][]complex128{{2, 1}, {1i, 1 + 1i}})
	errAt := func(snr float64) float64 {
		var acc float64
		const draws = 3000
		for d := 0; d < draws; d++ {
			he := PerturbEstimate(rng, h, snr, 128, 0)
			acc += he.Sub(h).FrobeniusNorm() / h.FrobeniusNorm()
		}
		return acc / draws
	}
	lo, hi := errAt(FromDB(10)), errAt(FromDB(30))
	if lo <= hi {
		t.Fatalf("estimation error must shrink with SNR: %g vs %g", lo, hi)
	}
	// 20 dB more SNR → 10× smaller rms error.
	if ratio := lo / hi; ratio < 5 || ratio > 20 {
		t.Fatalf("error ratio %g, want ≈10", ratio)
	}
}

func TestPerturbEstimateFloor(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	h := cmplxmat.FromRows([][]complex128{{1}})
	// At infinite SNR only the floor remains.
	var acc float64
	const draws = 5000
	for d := 0; d < draws; d++ {
		he := PerturbEstimate(rng, h, math.Inf(1), 128, 0.05)
		acc += he.Sub(h).FrobeniusNorm()
	}
	rms := acc / draws
	if rms < 0.03 || rms > 0.07 {
		t.Fatalf("floor rms %g, want ≈0.045", rms)
	}
}

func TestPathLossMonotone(t *testing.T) {
	g1 := PathLoss(nil, 1, 3, 1e5, 0)
	g10 := PathLoss(nil, 10, 3, 1e5, 0)
	g20 := PathLoss(nil, 20, 3, 1e5, 0)
	if !(g1 > g10 && g10 > g20) {
		t.Fatalf("path loss not monotone: %g %g %g", g1, g10, g20)
	}
	// Exponent 3 → 30 dB per decade.
	if r := DB(g1) - DB(g10); math.Abs(r-30) > 1e-9 {
		t.Fatalf("loss per decade %g dB, want 30", r)
	}
	// Distances below 1 m clamp.
	if PathLoss(nil, 0.1, 3, 1e5, 0) != g1 {
		t.Fatal("sub-meter distance should clamp to 1 m")
	}
}

func TestDBRoundTrip(t *testing.T) {
	for _, db := range []float64{-20, 0, 3, 27} {
		if got := DB(FromDB(db)); math.Abs(got-db) > 1e-12 {
			t.Fatalf("DB roundtrip %g -> %g", db, got)
		}
	}
	if !math.IsInf(DB(0), -1) {
		t.Fatal("DB(0) should be -Inf")
	}
}

func TestPropFreqResponseLinearInTaps(t *testing.T) {
	// Doubling all taps doubles every frequency response entry.
	f := func(seed int64, binSel uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		ch := NewRayleigh(rng, 2, 2, DefaultProfile, 1)
		bin := int(binSel) % 64
		h1 := ch.FreqResponse(bin, 64)
		for n := range ch.taps {
			for m := range ch.taps[n] {
				for t := range ch.taps[n][m] {
					ch.taps[n][m][t] *= 2
				}
			}
		}
		h2 := ch.FreqResponse(bin, 64)
		return h2.EqualApprox(h1.Scale(2), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestFromTapsAndMaxDelay(t *testing.T) {
	ch := FromTaps([][][]complex128{{{1, 0, 0.5}}})
	if ch.N != 1 || ch.M != 1 || ch.MaxDelay() != 2 {
		t.Fatalf("FromTaps wrong: N=%d M=%d delay=%d", ch.N, ch.M, ch.MaxDelay())
	}
}
