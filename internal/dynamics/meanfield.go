package dynamics

import (
	"math"

	"repro/internal/stats"
)

// Mean-field fast path.
//
// On a mean-field-eligible topology (graph.Kn) every vertex draws its k
// samples uniformly from the other n−1 vertices, so conditional on the
// current blue count b all vertices update independently with colour-
// dependent probabilities: a Red holder sees b blue vertices among its
// n−1 neighbours, a Blue holder sees b−1 (self-exclusion). One synchronous
// round is therefore
//
//	B' ~ Bin(n−b, pAdopt(b, red)) + Bin(b, pAdopt(b, blue)),
//
// exactly the transition kernel of the internal/markov chain — the
// adoption probabilities below reuse stats.BinomialTail, the same function
// markov.New tabulates, so the two agree to the last bit for the paper's
// odd-k noiseless rules. The engine draws the two binomials in O(1)
// expected time (rng.Source.Binomial uses BTRS for large n·p), replacing
// Θ(n·k) per-sample work per round.

// stepMeanField advances one round on the blue-count chain, drawing from
// the process's one source.
func (p *Process) stepMeanField() {
	n := p.g.N()
	b := p.mfBlues
	src := p.src
	pRed := p.adoptBlueProb(b, false)
	pBlue := p.adoptBlueProb(b, true)
	p.mfBlues = src.Binomial(n-b, pRed) + src.Binomial(b, pBlue)
	p.mfDirty = true
}

// adoptBlueProb returns the probability that a holder of the given colour
// ends the round Blue, given the pre-round blue count b. It honours the
// full Rule: sample count k, with/without replacement (falling back to
// with-replacement when k exceeds the degree, mirroring the general
// engine), per-sample noise, and both tie rules.
func (p *Process) adoptBlueProb(b int, holderBlue bool) float64 {
	k := p.rule.K
	deg := p.g.N() - 1
	sees := b
	if holderBlue {
		sees = b - 1
		if sees < 0 {
			sees = 0
		}
	}
	maj := k/2 + 1
	noise := p.rule.Noise

	if p.rule.WithoutReplacement && deg >= k {
		return p.majorityProbHypergeometric(sees, deg, k, noise, holderBlue)
	}

	// With replacement: each sample is independently observed Blue with
	// probability q = p·(1−η) + (1−p)·η (true-blue probability p, flip
	// probability η), so the observed blue count is Bin(k, q).
	q := float64(sees) / float64(deg)
	if noise > 0 {
		q = q*(1-noise) + (1-q)*noise
	}
	adopt := stats.BinomialTail(k, maj, q)
	if k%2 == 0 {
		adopt += p.tieBlueShare(holderBlue) * binomialPoint(k, k/2, q)
	}
	return clamp01(adopt)
}

// majorityProbHypergeometric handles sampling without replacement: the
// true blue count among k distinct samples is Hypergeometric(deg, sees, k)
// and each sample is then independently flipped with probability noise, so
// the observed count given j true blues is Bin(j, 1−η) + Bin(k−j, η).
// k is small, so the O(k³) convolution is negligible next to a general-
// engine round.
func (p *Process) majorityProbHypergeometric(sees, deg, k int, noise float64, holderBlue bool) float64 {
	maj := k/2 + 1
	adopt := 0.0
	tie := 0.0
	lo := k - (deg - sees)
	if lo < 0 {
		lo = 0
	}
	hi := k
	if sees < hi {
		hi = sees
	}
	for j := lo; j <= hi; j++ {
		w := math.Exp(lchoose(sees, j) + lchoose(deg-sees, k-j) - lchoose(deg, k))
		if w == 0 {
			continue
		}
		if noise == 0 {
			if 2*j >= 2*maj {
				adopt += w
			} else if k%2 == 0 && 2*j == k {
				tie += w
			}
			continue
		}
		// Observed blue count: convolution of Bin(j, 1−η) and Bin(k−j, η).
		for a := 0; a <= j; a++ {
			pa := binomialPoint(j, a, 1-noise)
			if pa == 0 {
				continue
			}
			for c := 0; c <= k-j; c++ {
				obs := a + c
				pc := pa * binomialPoint(k-j, c, noise)
				if 2*obs > k {
					adopt += w * pc
				} else if 2*obs == k && k%2 == 0 {
					tie += w * pc
				}
			}
		}
	}
	adopt += p.tieBlueShare(holderBlue) * tie
	return clamp01(adopt)
}

// tieBlueShare is the probability a tied even-k sample resolves Blue for
// the given holder colour: TieKeep keeps the holder's opinion, TieRandom
// flips a fair coin.
func (p *Process) tieBlueShare(holderBlue bool) float64 {
	if p.rule.Tie == TieRandom {
		return 0.5
	}
	if holderBlue {
		return 1
	}
	return 0
}

// binomialPoint is P(Bin(n, q) = j), via the log-gamma form for stability
// at any n.
func binomialPoint(n, j int, q float64) float64 {
	if j < 0 || j > n {
		return 0
	}
	if q <= 0 {
		if j == 0 {
			return 1
		}
		return 0
	}
	if q >= 1 {
		if j == n {
			return 1
		}
		return 0
	}
	return math.Exp(lchoose(n, j) + float64(j)*math.Log(q) + float64(n-j)*math.Log1p(-q))
}

func lchoose(n, k int) float64 {
	a, _ := math.Lgamma(float64(n + 1))
	b, _ := math.Lgamma(float64(k + 1))
	c, _ := math.Lgamma(float64(n - k + 1))
	return a - b - c
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}
