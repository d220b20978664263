package fec

import (
	"fmt"
	"math"
)

// rsCode is a systematic Reed–Solomon code RS(n, k) over GF(2^8), kept as
// its shape: it corrects up to t = (n−k)/2 symbol (byte) errors per block,
// which is all FrameLossProb needs.
type rsCode struct {
	n, k, t int
}

// NewRS constructs RS(n, k). n must be ≤ 255 (the GF(2^8) block bound),
// n−k must be a positive even number.
func NewRS(n, k int) (Code, error) {
	switch {
	case n > 255:
		return nil, fmt.Errorf("fec: RS n=%d exceeds GF(2^8) block bound 255", n)
	case k <= 0 || k >= n:
		return nil, fmt.Errorf("fec: RS requires 0 < k < n, got n=%d k=%d", n, k)
	case (n-k)%2 != 0:
		return nil, fmt.Errorf("fec: RS parity n-k=%d must be even", n-k)
	}
	return &rsCode{n: n, k: k, t: (n - k) / 2}, nil
}

// MustRS is NewRS that panics on invalid parameters; for package-level
// profile tables with compile-time-known shapes.
func MustRS(n, k int) Code {
	c, err := NewRS(n, k)
	if err != nil {
		panic(err)
	}
	return c
}

func (c *rsCode) Name() string  { return fmt.Sprintf("rs(%d,%d)", c.n, c.k) }
func (c *rsCode) DataLen() int  { return c.k }
func (c *rsCode) BlockLen() int { return c.n }

// FrameLossProb models a frame of frameBits data bits carried in
// ceil(frameBits/8k) blocks; the frame survives only if every block has at
// most t symbol errors. Symbol errors are i.i.d. with probability
// p_s = 1 − (1−ber)^8.
func (c *rsCode) FrameLossProb(ber float64, frameBits int) float64 {
	if ber <= 0 || frameBits <= 0 {
		return 0
	}
	ps := 1 - math.Pow(1-ber, 8)
	pBlockFail := binomialTail(c.n, c.t, ps)
	blocks := float64(frameBits+8*c.k-1) / float64(8*c.k)
	// 1 − (1 − p)^blocks, computed stably for tiny p.
	return -math.Expm1(blocks * math.Log1p(-pBlockFail))
}

// binomialTail returns P[X > t] for X ~ Binomial(n, p), evaluated in log
// space so the 1e-12 BER regime does not underflow to zero prematurely.
func binomialTail(n, t int, p float64) float64 {
	if p <= 0 {
		return 0
	}
	if p >= 1 {
		return 1
	}
	lp := math.Log(p)
	lq := math.Log1p(-p)
	lgN, _ := math.Lgamma(float64(n + 1))
	var sum float64
	for i := t + 1; i <= n; i++ {
		lgI, _ := math.Lgamma(float64(i + 1))
		lgNI, _ := math.Lgamma(float64(n - i + 1))
		logTerm := lgN - lgI - lgNI + float64(i)*lp + float64(n-i)*lq
		sum += math.Exp(logTerm)
	}
	if sum > 1 {
		sum = 1
	}
	return sum
}

// frameErrorProb is the no-FEC frame loss: any bit error loses the frame.
func frameErrorProb(ber float64, frameBits int) float64 {
	if ber <= 0 || frameBits <= 0 {
		return 0
	}
	return -math.Expm1(float64(frameBits) * math.Log1p(-ber))
}
