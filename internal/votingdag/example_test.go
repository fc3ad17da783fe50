package votingdag_test

import (
	"fmt"

	"repro/internal/opinion"
	"repro/internal/votingdag"
)

// Build the paper's Figure 1 by hand: a 2-level voting-DAG whose level-1
// vertices query overlapping level-0 vertices, then apply the Sprinkling
// process, which re-routes every colliding reveal to a fresh artificial
// always-Blue leaf.
func ExampleDAG_Sprinkle() {
	d := votingdag.BuildManual([]votingdag.ManualLevel{
		{{V: 20}, {V: 21}, {V: 22}},
		{{V: 10, Children: [3]int{0, 1, 0}}, {V: 11, Children: [3]int{1, 2, 2}}},
		{{V: 1, Children: [3]int{0, 1, 1}}},
	})
	fmt.Println("collision levels before:", d.CollisionLevelCount())
	s := d.Sprinkle(d.T())
	fmt.Println("collision levels after: ", s.CollisionLevelCount())
	fmt.Println("artificial blue leaves: ", s.ArtificialCount())
	// Output:
	// collision levels before: 2
	// collision levels after:  0
	// artificial blue leaves:  4
}

// The colouring process: leaves get i.i.d. colours, every higher node takes
// the majority of its three child slots (a duplicated child decides alone).
func ExampleDAG_Colour() {
	d := votingdag.BuildManual([]votingdag.ManualLevel{
		{{V: 10}, {V: 11}, {V: 12}},
		{{V: 1, Children: [3]int{0, 1, 2}}},
	})
	cols := d.Colour(func(v int) opinion.Colour {
		if v == 10 || v == 12 {
			return opinion.Blue
		}
		return opinion.Red
	})
	fmt.Println("root:", cols.RootColour())
	// Output:
	// root: B
}

// Lemma 5's threshold: a ternary tree of h+1 levels can only have a Blue
// root if at least 2^h leaves are Blue.
func ExampleMinBlueLeavesForBlueRoot() {
	for h := 1; h <= 4; h++ {
		fmt.Printf("h=%d: need >= %d blue leaves\n", h, votingdag.MinBlueLeavesForBlueRoot(h))
	}
	// Output:
	// h=1: need >= 2 blue leaves
	// h=2: need >= 4 blue leaves
	// h=3: need >= 8 blue leaves
	// h=4: need >= 16 blue leaves
}
