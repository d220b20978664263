package fec

import "math"

// hamming7264 is the classic (72,64) SECDED code used on memory buses and
// low-latency links: 64 data bits, 7 Hamming parity bits, 1 overall parity
// bit. It corrects any single bit error and detects any double bit error
// per 72-bit block. We carry each block in 9 bytes.
type hamming7264 struct{}

// NewHamming7264 returns the (72,64) SECDED code.
func NewHamming7264() Code { return hamming7264{} }

func (hamming7264) Name() string  { return "secded(72,64)" }
func (hamming7264) DataLen() int  { return 8 }
func (hamming7264) BlockLen() int { return 9 }

// FrameLossProb: a 72-bit block fails with ≥2 bit errors.
func (hamming7264) FrameLossProb(ber float64, frameBits int) float64 {
	if ber <= 0 || frameBits <= 0 {
		return 0
	}
	const blockBits = 72
	// P[≥2 errors] = 1 − (1−p)^72 − 72·p·(1−p)^71.
	q71 := math.Pow(1-ber, blockBits-1)
	pBlock := 1 - q71*(1-ber) - blockBits*ber*q71
	if pBlock < 0 {
		pBlock = 0
	}
	blocks := float64(frameBits+63) / 64
	return -math.Expm1(blocks * math.Log1p(-pBlock))
}
