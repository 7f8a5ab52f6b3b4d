package dsp

import (
	"math"
	"math/rand"
)

// Synthesis primitives shared by the synthetic bird-song generator and by
// tests. All generators write additively into dst so calls compose.

// AddTone adds a constant-frequency sinusoid of the given amplitude and
// initial phase to dst.
func AddTone(dst []float64, sampleRate, freq, amp, phase float64) {
	step := 2 * math.Pi * freq / sampleRate
	for i := range dst {
		dst[i] += amp * math.Sin(phase+step*float64(i))
	}
}

// AddChirp adds a linear frequency sweep from f0 to f1 across dst.
func AddChirp(dst []float64, sampleRate, f0, f1, amp float64) {
	n := float64(len(dst))
	if n == 0 {
		return
	}
	dur := n / sampleRate
	for i := range dst {
		t := float64(i) / sampleRate
		// Instantaneous phase of a linear chirp: 2*pi*(f0*t + (f1-f0)*t^2/(2*T)).
		phase := 2 * math.Pi * (f0*t + (f1-f0)*t*t/(2*dur))
		dst[i] += amp * math.Sin(phase)
	}
}

// AddHarmonics adds a harmonic stack: fundamental plus harmonics whose
// amplitudes roll off geometrically by the given factor per harmonic.
func AddHarmonics(dst []float64, sampleRate, fundamental, amp float64, nHarmonics int, rolloff float64) {
	a := amp
	for h := 1; h <= nHarmonics; h++ {
		f := fundamental * float64(h)
		if f >= sampleRate/2 {
			break
		}
		AddTone(dst, sampleRate, f, a, 0)
		a *= rolloff
	}
}

// AddWhiteNoise adds uniform white noise with the given peak amplitude.
func AddWhiteNoise(dst []float64, rng *rand.Rand, amp float64) {
	for i := range dst {
		dst[i] += amp * (2*rng.Float64() - 1)
	}
}

// AddPinkNoise adds approximately 1/f ("pink") noise using the Voss-
// McCartney row algorithm with 12 rows. Low-frequency wind rumble in the
// synthetic clips is pink noise low-pass filtered by the caller.
func AddPinkNoise(dst []float64, rng *rand.Rand, amp float64) {
	const rows = 12
	var vals [rows]float64
	var counter uint64
	var sum float64
	for i := range vals {
		vals[i] = 2*rng.Float64() - 1
		sum += vals[i]
	}
	norm := amp / rows
	for i := range dst {
		counter++
		// The lowest set bit selects which row updates.
		row := 0
		for b := counter; b&1 == 0 && row < rows-1; b >>= 1 {
			row++
		}
		sum -= vals[row]
		vals[row] = 2*rng.Float64() - 1
		sum += vals[row]
		dst[i] += sum * norm
	}
}

// OnePoleLowPass filters x in place with a one-pole IIR low-pass at the
// given cutoff frequency and returns x.
func OnePoleLowPass(x []float64, sampleRate, cutoff float64) []float64 {
	if len(x) == 0 || cutoff <= 0 {
		return x
	}
	rc := 1 / (2 * math.Pi * cutoff)
	dt := 1 / sampleRate
	alpha := dt / (rc + dt)
	var y float64
	for i, v := range x {
		y += alpha * (v - y)
		x[i] = y
	}
	return x
}

// ApplyEnvelope shapes dst with an attack/decay amplitude envelope:
// linear attack over attackFrac of the length, exponential-style decay
// over the final decayFrac, flat sustain between.
func ApplyEnvelope(dst []float64, attackFrac, decayFrac float64) {
	n := len(dst)
	if n == 0 {
		return
	}
	attack := int(attackFrac * float64(n))
	decay := int(decayFrac * float64(n))
	for i := 0; i < attack && i < n; i++ {
		dst[i] *= float64(i) / float64(attack)
	}
	for i := 0; i < decay && i < n; i++ {
		idx := n - 1 - i
		dst[idx] *= float64(i+1) / float64(decay)
	}
}

// Peak returns the maximum absolute value in x.
func Peak(x []float64) float64 {
	var m float64
	for _, v := range x {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}

// Normalize scales x in place so its peak is the given target amplitude
// (no-op for all-zero input) and returns x.
func Normalize(x []float64, target float64) []float64 {
	p := Peak(x)
	if p == 0 {
		return x
	}
	s := target / p
	for i := range x {
		x[i] *= s
	}
	return x
}

// ToPCM16 quantizes float samples in [-1, 1] to 16-bit PCM, clamping
// out-of-range values.
func ToPCM16(x []float64) []int16 {
	out := make([]int16, len(x))
	for i, v := range x {
		s := v * 32767
		switch {
		case s > 32767:
			s = 32767
		case s < -32768:
			s = -32768
		}
		out[i] = int16(s)
	}
	return out
}
