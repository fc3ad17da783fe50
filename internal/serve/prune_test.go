package serve

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/bus"
	"repro/internal/metrics"
	"repro/internal/rng"
)

// refPruneLocked is the pruning loop pruneLocked replaced, kept as its
// reference: one compacting walk over the whole order that evicts the
// first excess evictable jobs.
func refPruneLocked(m *Manager) {
	excess := len(m.order) - m.cfg.Retention
	if excess <= 0 {
		return
	}
	kept := m.order[:0]
	for _, id := range m.order {
		j := m.jobs[id]
		finished := j.state == StateDone || j.state == StateFailed || j.state == StateCancelled
		if j.owner != nil && j.owner.state == StateRunning {
			finished = false
		}
		if excess > 0 && finished {
			delete(m.jobs, id)
			m.bus.Drop(runTopic(id))
			excess--
			continue
		}
		kept = append(kept, id)
	}
	m.order = kept
}

// TestPruneMatchesReference drives pruneLocked and refPruneLocked through
// the same random sequences of admissions (standalone jobs and children
// of running sweeps), job finishes and sweep finishes: after every
// admission both must have evicted the same jobs and kept the same
// order.
func TestPruneMatchesReference(t *testing.T) {
	newManager := func(retention int) *Manager {
		return &Manager{
			cfg:  Config{Retention: retention},
			jobs: map[string]*job{},
			bus:  bus.NewInstrumented(bus.NewMetrics(metrics.NewRegistry())),
		}
	}
	terminal := []string{StateDone, StateFailed, StateCancelled}
	for seed := uint64(1); seed <= 40; seed++ {
		src := rng.New(seed)
		retention := 1 + src.Intn(12)
		got, want := newManager(retention), newManager(retention)
		var live []*job
		var sweeps []*sweep
		for step := 0; step < 600; step++ {
			switch op := src.Intn(10); {
			case op < 4: // admission, pruned the way Submit prunes
				j := &job{id: fmt.Sprintf("run-%06d", step), state: StateQueued}
				switch src.Intn(4) {
				case 0:
					s := &sweep{state: StateRunning}
					sweeps = append(sweeps, s)
					j.owner = s
				case 1:
					if len(sweeps) > 0 {
						j.owner = sweeps[src.Intn(len(sweeps))]
					}
				}
				if src.Intn(3) == 0 {
					j.state = terminal[src.Intn(3)] // a store hit is born done
				}
				live = append(live, j)
				for _, m := range []*Manager{got, want} {
					m.jobs[j.id] = j
					m.order = append(m.order, j.id)
				}
				got.pruneLocked()
				refPruneLocked(want)
			case op < 8: // a job finishes; early admissions mostly first
				if len(live) > 0 {
					i := min(src.Intn(len(live)), src.Intn(len(live)))
					live[i].state = terminal[src.Intn(3)]
				}
			default: // a sweep finishes, releasing its children
				if len(sweeps) > 0 {
					sweeps[src.Intn(len(sweeps))].state = StateDone
				}
			}
			if !slices.Equal(got.order, want.order) {
				t.Fatalf("seed %d step %d: order %v, reference %v", seed, step, got.order, want.order)
			}
			if len(got.jobs) != len(want.jobs) {
				t.Fatalf("seed %d step %d: %d jobs kept, reference %d", seed, step, len(got.jobs), len(want.jobs))
			}
			for id := range want.jobs {
				if _, ok := got.jobs[id]; !ok {
					t.Fatalf("seed %d step %d: evicted %s, which the reference kept", seed, step, id)
				}
			}
		}
	}
}
