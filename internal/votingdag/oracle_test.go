package votingdag

import "fmt"

// Structural checks the builder and sprinkling tests assert with. No
// program needs them, so they live with the tests.

// NumNodes returns the total node count across all levels.
func (d *DAG) NumNodes() int {
	total := 0
	for _, lvl := range d.Levels {
		total += len(lvl)
	}
	return total
}

// IsTree reports whether the DAG is a ternary tree, i.e. no coalescing
// occurred anywhere: level t has exactly 3^(T−t) nodes.
func (d *DAG) IsTree() bool {
	want := 1
	for t := d.T(); t >= 0; t-- {
		if len(d.Levels[t]) != want {
			return false
		}
		if want > 1<<30/3 {
			return false // would overflow; such DAGs are never trees in practice
		}
		want *= 3
	}
	return true
}

// Validate checks structural invariants: child indices in range, leaves and
// artificial nodes childless in colouring (by construction), level sizes
// consistent. Returns the first violation.
func (d *DAG) Validate() error {
	if len(d.Levels) == 0 {
		return fmt.Errorf("votingdag: no levels")
	}
	if len(d.Levels[d.T()]) != 1 {
		return fmt.Errorf("votingdag: root level has %d nodes, want 1", len(d.Levels[d.T()]))
	}
	for t := 1; t < len(d.Levels); t++ {
		for i, nd := range d.Levels[t] {
			if nd.Artificial {
				continue
			}
			for _, c := range nd.Children {
				if int(c) < 0 || int(c) >= len(d.Levels[t-1]) {
					return fmt.Errorf("votingdag: node (%d,%d) child %d out of range", i, t, c)
				}
			}
		}
	}
	for t, lvl := range d.Levels {
		for i, nd := range lvl {
			if nd.Artificial && nd.V != NoVertex {
				return fmt.Errorf("votingdag: artificial node (%d,%d) has vertex %d", i, t, nd.V)
			}
			if !nd.Artificial && nd.V == NoVertex {
				return fmt.Errorf("votingdag: normal node (%d,%d) lacks a vertex", i, t)
			}
		}
	}
	return nil
}
