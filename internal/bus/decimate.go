package bus

// Decimator thins a monotone per-trial round stream to a bounded number
// of emitted frames so that watching a run costs O(frame budget), not
// O(rounds): a 10⁶-round trial under the default budget publishes ≤ 256
// trajectory frames.
//
// The stride is fixed up front from the run's effective round budget
// (core.RoundBudget — the cap the executor itself enforces, so the worst
// case is known before the first round): with T trials sharing one
// per-run frame budget F, each trial keeps rounds that are multiples of
//
//	stride = ceil(roundBudget · T / F)
//
// clamped so every trial keeps at least round 0 (its initial blue count).
// Runs that stop early — consensus long before the cap — emit
// proportionally fewer frames; the terminal lifecycle event carries the
// final outcome, so the trajectory stream never needs a special last
// frame. Keep is pure per (trial-ordered) stream: callers may invoke it
// from one goroutine per trial without synchronisation, and the kept set
// is a deterministic function of (roundBudget, trials, budget) alone,
// which is what makes watched and unwatched runs byte-identical
// everywhere downstream.
type Decimator struct {
	stride int
}

// DefaultFrameBudget is the per-run trajectory frame budget used by the
// serve layer and bo3sim -progress.
const DefaultFrameBudget = 256

// NewDecimator sizes a decimator for a run of `trials` trials, each
// capped at roundBudget rounds, sharing `frames` published frames (<= 0
// selects DefaultFrameBudget).
func NewDecimator(roundBudget, trials, frames int) *Decimator {
	if frames <= 0 {
		frames = DefaultFrameBudget
	}
	if trials < 1 {
		trials = 1
	}
	if roundBudget < 1 {
		roundBudget = 1
	}
	// ceil(roundBudget*trials/frames); the product fits comfortably:
	// admission caps rounds at 2^20 and trials at 2^12.
	stride := (roundBudget*trials + frames - 1) / frames
	if stride < 1 {
		stride = 1
	}
	return &Decimator{stride: stride}
}

// Keep reports whether the frame for this round should be emitted.
func (d *Decimator) Keep(round int) bool { return round%d.stride == 0 }
