// Package phy assembles the full signal-level transmit and receive
// chains of the n+ prototype (§5): payload bits are scrambled,
// convolutionally encoded, interleaved, and mapped to constellation
// points; each spatial stream's points are precoded per OFDM
// subcarrier with the nulling/alignment vectors of package mimo,
// OFDM-modulated, and summed onto transmit antennas. The receive
// chain estimates per-stream effective channels from per-stream
// training symbols (the joiner transmits its preamble *through* its
// precoder, so receivers measure effective channels directly —
// footnote 1 of the paper), projects out unwanted streams, and
// reverses the bit chain.
//
// No simulator path runs this chain: every experiment, the figures
// included, uses the faster link abstraction of package mac. This
// package is the signal-level oracle that abstraction is checked
// against (TestLinkAbstractionMatchesSignalLevel).
package phy

import (
	"errors"
	"fmt"
	"math"

	"nplus/internal/cmplxmat"
	"nplus/internal/mimo"
	"nplus/internal/modulation"
	"nplus/internal/ofdm"
)

// BitChain groups the scramble/code/interleave parameters of one
// transmission.
type BitChain struct {
	Rate          modulation.Rate
	ScramblerSeed byte
}

// EncodePayload runs payload bytes through the 802.11 bit chain and
// returns constellation symbols, padded to a whole number of OFDM
// symbols.
func (c BitChain) EncodePayload(payload []byte, params *ofdm.Params) ([]complex128, error) {
	bits := BytesToBits(payload)
	scrambled := modulation.Scramble(bits, c.ScramblerSeed)
	coded := modulation.ConvEncode(scrambled, c.Rate.CodeRate)
	nCBPS := params.NumDataCarriers() * c.Rate.Scheme.BitsPerSymbol()
	// Pad with zeros to fill the last OFDM symbol.
	if rem := len(coded) % nCBPS; rem != 0 {
		coded = append(coded, make([]byte, nCBPS-rem)...)
	}
	il, err := modulation.NewInterleaver(nCBPS, c.Rate.Scheme.BitsPerSymbol())
	if err != nil {
		return nil, err
	}
	interleaved, err := il.InterleaveAll(coded)
	if err != nil {
		return nil, err
	}
	return c.Rate.Scheme.Modulate(interleaved)
}

// DecodePayload reverses EncodePayload. payloadLen is the original
// byte count (known from the header).
func (c BitChain) DecodePayload(symbols []complex128, payloadLen int, params *ofdm.Params) ([]byte, error) {
	if payloadLen < 0 {
		return nil, errors.New("phy: negative payload length")
	}
	nCBPS := params.NumDataCarriers() * c.Rate.Scheme.BitsPerSymbol()
	bits := c.Rate.Scheme.Demodulate(symbols)
	if len(bits)%nCBPS != 0 {
		return nil, fmt.Errorf("phy: %d coded bits not a whole number of OFDM symbols", len(bits))
	}
	il, err := modulation.NewInterleaver(nCBPS, c.Rate.Scheme.BitsPerSymbol())
	if err != nil {
		return nil, err
	}
	deinterleaved, err := il.DeinterleaveAll(bits)
	if err != nil {
		return nil, err
	}
	nDataBits := payloadLen * 8
	needCoded := modulation.CodedBitsLen(nDataBits, c.Rate.CodeRate)
	if len(deinterleaved) < needCoded {
		return nil, fmt.Errorf("phy: %d coded bits, need %d", len(deinterleaved), needCoded)
	}
	decoded, err := modulation.ConvDecode(deinterleaved[:needCoded], c.Rate.CodeRate, nDataBits)
	if err != nil {
		return nil, err
	}
	descrambled := modulation.Descramble(decoded, c.ScramblerSeed)
	return BitsToBytes(descrambled), nil
}

// SymbolsNeeded returns how many OFDM symbols a payload occupies at
// the chain's rate.
func (c BitChain) SymbolsNeeded(payloadLen int, params *ofdm.Params) int {
	nCBPS := params.NumDataCarriers() * c.Rate.Scheme.BitsPerSymbol()
	coded := modulation.CodedBitsLen(payloadLen*8, c.Rate.CodeRate)
	return (coded + nCBPS - 1) / nCBPS
}

// BytesToBits expands bytes MSB-first into one bit per byte.
func BytesToBits(b []byte) []byte {
	out := make([]byte, 0, len(b)*8)
	for _, x := range b {
		for i := 7; i >= 0; i-- {
			out = append(out, x>>uint(i)&1)
		}
	}
	return out
}

// BitsToBytes packs bits (one per byte, MSB-first) into bytes,
// dropping a partial trailing byte.
func BitsToBytes(bits []byte) []byte {
	out := make([]byte, 0, len(bits)/8)
	for i := 0; i+8 <= len(bits); i += 8 {
		var x byte
		for j := 0; j < 8; j++ {
			x = x<<1 | bits[i+j]&1
		}
		out = append(out, x)
	}
	return out
}

// PrecoderBank holds one pre-coding vector per stream per data
// subcarrier: Vectors[streamIdx][dataBinIdx] is an M-element vector.
// n+ computes nulling/alignment per subcarrier (§4, Multipath), so a
// joiner's bank genuinely varies across bins; a first winner's bank
// is typically constant.
type PrecoderBank struct {
	M       int
	Vectors [][]cmplxmat.Vector
}

// UniformBank builds a bank that applies the same vectors on every
// data subcarrier (flat-channel case, or plain spatial multiplexing).
func UniformBank(params *ofdm.Params, pre *mimo.Precoder) *PrecoderBank {
	nBins := params.NumDataCarriers()
	b := &PrecoderBank{M: pre.M, Vectors: make([][]cmplxmat.Vector, pre.NumStreams())}
	for i, v := range pre.Vectors {
		b.Vectors[i] = make([]cmplxmat.Vector, nBins)
		for k := range b.Vectors[i] {
			b.Vectors[i][k] = v
		}
	}
	return b
}

// BankFromPerBin builds a bank from one precoder per data subcarrier
// (all must agree on M and stream count).
func BankFromPerBin(pres []*mimo.Precoder) (*PrecoderBank, error) {
	if len(pres) == 0 {
		return nil, errors.New("phy: empty precoder list")
	}
	m := pres[0].M
	ns := pres[0].NumStreams()
	b := &PrecoderBank{M: m, Vectors: make([][]cmplxmat.Vector, ns)}
	for i := range b.Vectors {
		b.Vectors[i] = make([]cmplxmat.Vector, len(pres))
	}
	for k, p := range pres {
		if p.M != m || p.NumStreams() != ns {
			return nil, fmt.Errorf("phy: precoder %d has M=%d streams=%d, want M=%d streams=%d", k, p.M, p.NumStreams(), m, ns)
		}
		for i := 0; i < ns; i++ {
			b.Vectors[i][k] = p.Vectors[i]
		}
	}
	return b, nil
}

// NumStreams returns the bank's stream count.
func (b *PrecoderBank) NumStreams() int { return len(b.Vectors) }

// Transmission is a fully assembled multi-stream transmission.
type Transmission struct {
	Params *ofdm.Params
	Bank   *PrecoderBank
	// StreamSymbols[i] is the flat symbol sequence of stream i; all
	// streams must contain the same whole number of OFDM symbols.
	StreamSymbols [][]complex128
	// IncludePreamble prepends one precoded LTF per stream, so
	// receivers estimate effective channels directly (footnote 1).
	IncludePreamble bool
	// IncludeSTF additionally prepends the short training field.
	// First contention winners send it for packet detection; joiners
	// must NOT (an unprecoded STF would interfere with ongoing
	// receptions — a joiner's entire transmission is precoded, §3.3).
	IncludeSTF bool
}

// Samples renders the transmission to per-antenna time samples.
//
// Layout: [STF?][LTF stream 1]…[LTF stream S][data symbols]. The STF
// is transmitted from antenna 0 only (detection needs no MIMO
// structure); each stream's LTF is precoded with that stream's
// per-bin vectors so receivers estimate *effective* channels.
func (tx *Transmission) Samples() ([][]complex128, error) {
	p := tx.Params
	nd := p.NumDataCarriers()
	s := len(tx.StreamSymbols)
	if s == 0 || s != tx.Bank.NumStreams() {
		return nil, fmt.Errorf("phy: %d streams for bank with %d", s, tx.Bank.NumStreams())
	}
	nSym := len(tx.StreamSymbols[0]) / nd
	for i, ss := range tx.StreamSymbols {
		if len(ss) != nSym*nd {
			return nil, fmt.Errorf("phy: stream %d has %d symbols, want %d×%d", i, len(ss), nSym, nd)
		}
		for k := range tx.Bank.Vectors[i] {
			if len(tx.Bank.Vectors[i][k]) != tx.Bank.M {
				return nil, fmt.Errorf("phy: stream %d bin %d precoder has %d antennas, want %d", i, k, len(tx.Bank.Vectors[i][k]), tx.Bank.M)
			}
		}
		if len(tx.Bank.Vectors[i]) != nd {
			return nil, fmt.Errorf("phy: stream %d bank covers %d bins, want %d", i, len(tx.Bank.Vectors[i]), nd)
		}
	}

	m := tx.Bank.M
	out := make([][]complex128, m)
	appendAll := func(per [][]complex128) {
		for a := 0; a < m; a++ {
			out[a] = append(out[a], per[a]...)
		}
	}
	binToData := nearestDataBin(p)

	if tx.IncludeSTF {
		// STF from antenna 0.
		stf := p.STF()
		per := make([][]complex128, m)
		for a := range per {
			per[a] = make([]complex128, len(stf))
		}
		copy(per[0], stf)
		appendAll(per)
	}
	if tx.IncludePreamble {
		// Per-stream LTFs, precoded per subcarrier: the training symbols
		// must satisfy the same nulling/alignment constraints as the
		// data, or the joiner would interfere during its own preamble.
		ref := p.LTFFreq()
		norm := complex(p.LTFNorm(), 0)
		for i := 0; i < s; i++ {
			freqPerAnt := make([][]complex128, m)
			for a := 0; a < m; a++ {
				freqPerAnt[a] = make([]complex128, p.FFTSize)
			}
			for bin, r := range ref {
				if r == 0 {
					continue
				}
				v := tx.Bank.Vectors[i][binToData[bin]]
				for a := 0; a < m; a++ {
					freqPerAnt[a][bin] = r * v[a]
				}
			}
			per := make([][]complex128, m)
			for a := 0; a < m; a++ {
				time := freqPerAnt[a]
				p.IFFT(time)
				// Assemble [2·CP | sym | sym] and apply LTF normalization.
				cp := 2 * p.CPLen
				stream := make([]complex128, 0, cp+ofdm.NumLTFRepeats*p.FFTSize)
				stream = append(stream, time[p.FFTSize-cp:]...)
				for r := 0; r < ofdm.NumLTFRepeats; r++ {
					stream = append(stream, time...)
				}
				for t := range stream {
					stream[t] /= norm
				}
				per[a] = stream
			}
			appendAll(per)
		}
	}

	// Data symbols: per OFDM symbol, per bin, mix streams through the
	// per-bin precoders, then per-antenna IFFT+CP.
	dataBins := p.DataBins()
	plan := make([][]complex128, m) // freq-domain per antenna
	for sym := 0; sym < nSym; sym++ {
		for a := 0; a < m; a++ {
			plan[a] = make([]complex128, p.FFTSize)
		}
		for k, bin := range dataBins {
			for i := 0; i < s; i++ {
				x := tx.StreamSymbols[i][sym*nd+k]
				if x == 0 {
					continue
				}
				v := tx.Bank.Vectors[i][k]
				for a := 0; a < m; a++ {
					plan[a][bin] += v[a] * x
				}
			}
		}
		// Pilots ride stream 0's precoder for the nearest data bin so
		// they never break nulling.
		pol := complex(1, 0)
		for _, bin := range p.PilotBins() {
			v0 := tx.Bank.Vectors[0][binToData[bin]]
			for a := 0; a < m; a++ {
				plan[a][bin] += v0[a] * pol
			}
		}
		per := make([][]complex128, m)
		for a := 0; a < m; a++ {
			per[a] = timeDomain(p, plan[a])
		}
		appendAll(per)
	}
	return out, nil
}

// nearestDataBin maps every FFT bin to the index (into DataBins) of
// the closest data subcarrier, so precoding vectors defined on data
// bins can be borrowed for pilot and training bins.
func nearestDataBin(p *ofdm.Params) []int {
	n := p.FFTSize
	dataBins := p.DataBins()
	signed := func(bin int) int {
		if bin > n/2 {
			return bin - n
		}
		return bin
	}
	out := make([]int, n)
	for bin := 0; bin < n; bin++ {
		best, bestDist := 0, 1<<30
		sb := signed(bin)
		for k, db := range dataBins {
			d := signed(db) - sb
			if d < 0 {
				d = -d
			}
			if d < bestDist {
				best, bestDist = k, d
			}
		}
		out[bin] = best
	}
	return out
}

// timeDomain converts one antenna's frequency-domain symbol to time
// samples with cyclic prefix.
func timeDomain(p *ofdm.Params, freq []complex128) []complex128 {
	tmp := make([]complex128, len(freq))
	copy(tmp, freq)
	p.IFFT(tmp)
	// Match ofdm.Modulate's unitary convention (√N on transmit).
	root := complex(math.Sqrt(float64(p.FFTSize)), 0)
	for i := range tmp {
		tmp[i] *= root
	}
	out := make([]complex128, p.SymbolLen())
	copy(out, tmp[p.FFTSize-p.CPLen:])
	copy(out[p.CPLen:], tmp)
	return out
}
