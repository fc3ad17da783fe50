package cobra

// Walk accessors only the tests read.

// StepCount returns the number of completed steps.
func (w *Walk) StepCount() int { return w.step }

// OccupiedSet returns a copy of the occupied vertex set.
func (w *Walk) OccupiedSet() []int {
	var out []int
	w.occupied.ForEach(func(v int) { out = append(out, v) })
	return out
}

// IsOccupied reports whether vertex v currently carries a particle.
func (w *Walk) IsOccupied(v int) bool { return w.occupied.Get(v) }
