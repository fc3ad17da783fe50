package spec

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/rng"
)

// GraphSpec names a topology declaratively. Family selects the generator;
// the remaining fields are family-specific parameters. Seed drives the
// random generators, so equal specs describe (and a graph pool may share)
// the identical graph.
type GraphSpec struct {
	// Family is one of Families(): "complete", "complete-virtual",
	// "random-regular", "gnp", "dense", "sbm", "cycle", "torus",
	// "hypercube".
	Family string `json:"family"`
	// N is the vertex count (complete, complete-virtual, random-regular,
	// gnp, dense, cycle).
	N int `json:"n,omitempty"`
	// D is the degree for random-regular.
	D int `json:"d,omitempty"`
	// P is the edge probability for gnp.
	P float64 `json:"p,omitempty"`
	// Alpha is the density exponent for dense (min degree ⌈n^alpha⌉).
	Alpha float64 `json:"alpha,omitempty"`
	// Rows and Cols size the torus.
	Rows int `json:"rows,omitempty"`
	Cols int `json:"cols,omitempty"`
	// Dim is the hypercube dimension.
	Dim int `json:"dim,omitempty"`
	// A and B are the two community sizes of the stochastic block model.
	A int `json:"a,omitempty"`
	B int `json:"b,omitempty"`
	// PIn and POut are the SBM intra- and inter-community edge
	// probabilities.
	PIn  float64 `json:"pin,omitempty"`
	POut float64 `json:"pout,omitempty"`
	// Seed drives the random generators (random-regular, gnp, dense, sbm).
	Seed uint64 `json:"seed,omitempty"`
}

// familyDef is one registry entry: everything the rest of the system needs
// to know about a graph family lives here, so adding a family is one
// struct literal and it lights up in validation, cache keys, edge
// estimates, builds, and the NS sweep axis at once.
type familyDef struct {
	name string
	// usesN reports whether the family consumes the N field (and may be
	// crossed with a sweep's NS axis).
	usesN bool
	// seeded reports whether the generator consumes Seed.
	seeded bool
	// meanField reports whether the family builds topologies that declare
	// mean-field eligibility (dynamics.MeanFielder), i.e. whose rounds the
	// engine can advance in O(1) via the blue-count chain.
	meanField bool
	// minDegree returns the family's minimum degree when it is determined
	// by the spec alone (deterministic families); ok = false for sampled
	// families (gnp, dense, sbm) whose degrees depend on the draw.
	minDegree func(s GraphSpec) (d int, ok bool)
	// keyParams lists the parameters the family actually consumes, in
	// canonical key order; stray fields never split cache entries.
	keyParams func(s GraphSpec) []string
	validate  func(s GraphSpec, l Limits) error
	edges     func(s GraphSpec) int64
	build     func(s GraphSpec) (core.Topology, error)
}

// families is the registry. Initialised once at package load; read-only
// afterwards, so lookups need no locking.
var families = map[string]*familyDef{}

func register(defs ...*familyDef) {
	for _, d := range defs {
		if _, dup := families[d.name]; dup {
			panic("spec: duplicate family " + d.name)
		}
		families[d.name] = d
	}
}

// Families returns the registered family names, sorted. This is the
// canonical list the documentation and CLIs enumerate.
func Families() []string {
	out := make([]string, 0, len(families))
	for name := range families {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// FamilyUsesN reports whether the named family consumes the N parameter
// (false for torus, hypercube, and sbm, whose sizes are set by their own
// fields). Unknown families report false.
func FamilyUsesN(name string) bool {
	d, ok := families[name]
	return ok && d.usesN
}

// FamilySeeded reports whether the named family's generator consumes the
// Seed parameter. Unknown families report false.
func FamilySeeded(name string) bool {
	d, ok := families[name]
	return ok && d.seeded
}

// FamilyMeanField reports whether the named family builds mean-field-
// eligible topologies, on which the engine's O(1)-per-round fast path is
// available (engine "auto" selects it; "mean-field" requires it). Unknown
// families report false.
func FamilyMeanField(name string) bool {
	d, ok := families[name]
	return ok && d.meanField
}

// MeanFieldFamilies returns the registered families with the mean-field
// fast path, sorted.
func MeanFieldFamilies() []string {
	out := []string{}
	for name, d := range families {
		if d.meanField {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// MinDegreeEstimate returns the spec's minimum degree when the family
// determines it without building the graph (complete, complete-virtual,
// random-regular, cycle, torus, hypercube); ok = false for sampled
// families and unknown families. Validation uses it to reject
// without-replacement rules whose K exceeds every vertex's degree.
func (s GraphSpec) MinDegreeEstimate() (d int, ok bool) {
	def, found := families[s.Family]
	if !found || def.minDegree == nil {
		return 0, false
	}
	return def.minDegree(s)
}

func (s GraphSpec) family() (*familyDef, error) {
	if s.Family == "" {
		return nil, fmt.Errorf("graph: family is required")
	}
	d, ok := families[s.Family]
	if !ok {
		return nil, fmt.Errorf("graph: unknown family %q (known: %s)", s.Family, strings.Join(Families(), ", "))
	}
	return d, nil
}

// Key returns the canonical cache key for the spec: two specs that would
// build the same graph render identically. Only the parameters the family
// actually consumes are included — a stray "d" on a cycle spec, or a seed
// on a deterministic family, does not split cache entries. Unknown
// families key on the family name alone.
func (s GraphSpec) Key() string {
	parts := []string{"family=" + s.Family}
	if d, ok := families[s.Family]; ok {
		parts = append(parts, d.keyParams(s)...)
	}
	return strings.Join(parts, ",")
}

// EdgeEstimate approximates the number of edges the spec materialises, for
// admission control. Virtual families cost O(1); unknown families report
// zero.
func (s GraphSpec) EdgeEstimate() int64 {
	if d, ok := families[s.Family]; ok {
		return d.edges(s)
	}
	return 0
}

// Validate checks the spec structurally, with no size ceiling beyond
// overflow safety. Admission-controlled servers use ValidateLimits.
func (s GraphSpec) Validate() error { return s.ValidateLimits(Unlimited()) }

// ValidateLimits checks the spec against the given limits and returns a
// client-facing error. The family-specific checks (including the torus and
// hypercube overflow guards) live in the registry, so every entry point
// rejects exactly the same specs.
func (s GraphSpec) ValidateLimits(l Limits) error {
	d, err := s.family()
	if err != nil {
		return err
	}
	if err := d.validate(s, l); err != nil {
		return err
	}
	if est := d.edges(s); est > l.MaxEdges {
		return fmt.Errorf("graph: estimated %d edges exceeds the limit %d", est, l.MaxEdges)
	}
	return nil
}

// Build materialises the topology. Randomised families are deterministic
// in Seed; a gnp or sbm draw that leaves an isolated vertex is an error
// (the dynamics need every vertex to be able to sample a neighbour).
func (s GraphSpec) Build() (core.Topology, error) {
	d, err := s.family()
	if err != nil {
		return nil, err
	}
	return d.build(s)
}

func kv(k string, v any) string { return fmt.Sprintf("%s=%v", k, v) }

func needN(s GraphSpec, l Limits) error {
	if s.N < 3 {
		return fmt.Errorf("graph: family %q needs n >= 3, got %d", s.Family, s.N)
	}
	if s.N > l.MaxN {
		return fmt.Errorf("graph: n = %d exceeds the limit %d", s.N, l.MaxN)
	}
	return nil
}

func init() {
	register(
		&familyDef{
			name: "complete", usesN: true,
			minDegree: func(s GraphSpec) (int, bool) { return s.N - 1, true },
			keyParams: func(s GraphSpec) []string { return []string{kv("n", s.N)} },
			validate:  needN,
			edges:     func(s GraphSpec) int64 { return int64(s.N) * int64(s.N-1) / 2 },
			build:     func(s GraphSpec) (core.Topology, error) { return graph.Complete(s.N), nil },
		},
		&familyDef{
			name: "complete-virtual", usesN: true, meanField: true,
			minDegree: func(s GraphSpec) (int, bool) { return s.N - 1, true },
			keyParams: func(s GraphSpec) []string { return []string{kv("n", s.N)} },
			validate:  needN,
			edges:     func(s GraphSpec) int64 { return 0 },
			build:     func(s GraphSpec) (core.Topology, error) { return graph.NewKn(s.N), nil },
		},
		&familyDef{
			name: "random-regular", usesN: true, seeded: true,
			minDegree: func(s GraphSpec) (int, bool) { return s.D, true },
			keyParams: func(s GraphSpec) []string {
				return []string{kv("n", s.N), kv("d", s.D), kv("seed", s.Seed)}
			},
			validate: func(s GraphSpec, l Limits) error {
				if err := needN(s, l); err != nil {
					return err
				}
				if s.D < 1 || s.D >= s.N {
					return fmt.Errorf("graph: random-regular needs 1 <= d < n, got d = %d, n = %d", s.D, s.N)
				}
				if s.N*s.D%2 != 0 {
					return fmt.Errorf("graph: random-regular needs n·d even, got n = %d, d = %d", s.N, s.D)
				}
				return nil
			},
			edges: func(s GraphSpec) int64 { return int64(s.N) * int64(s.D) / 2 },
			build: func(s GraphSpec) (core.Topology, error) {
				return graph.RandomRegular(s.N, s.D, rng.New(s.Seed)), nil
			},
		},
		&familyDef{
			name: "gnp", usesN: true, seeded: true,
			keyParams: func(s GraphSpec) []string {
				return []string{kv("n", s.N), kv("p", s.P), kv("seed", s.Seed)}
			},
			validate: func(s GraphSpec, l Limits) error {
				if err := needN(s, l); err != nil {
					return err
				}
				if !(s.P > 0 && s.P <= 1) {
					return fmt.Errorf("graph: gnp needs 0 < p <= 1, got %v", s.P)
				}
				return nil
			},
			edges: func(s GraphSpec) int64 { return int64(float64(s.N) * float64(s.N-1) / 2 * s.P) },
			build: func(s GraphSpec) (core.Topology, error) {
				g := graph.Gnp(s.N, s.P, rng.New(s.Seed))
				if g.MinDegree() == 0 {
					return nil, fmt.Errorf("graph: gnp(n=%d, p=%v, seed=%d) has an isolated vertex; raise p or change the seed", s.N, s.P, s.Seed)
				}
				return g, nil
			},
		},
		&familyDef{
			name: "dense", usesN: true, seeded: true,
			keyParams: func(s GraphSpec) []string {
				return []string{kv("n", s.N), kv("alpha", s.Alpha), kv("seed", s.Seed)}
			},
			validate: func(s GraphSpec, l Limits) error {
				if err := needN(s, l); err != nil {
					return err
				}
				if !(s.Alpha > 0 && s.Alpha <= 1) {
					return fmt.Errorf("graph: dense needs 0 < alpha <= 1, got %v", s.Alpha)
				}
				return nil
			},
			edges: func(s GraphSpec) int64 {
				// min degree ⌈n^alpha⌉ regular-ish
				d := math.Pow(float64(s.N), s.Alpha)
				return int64(float64(s.N) * d / 2)
			},
			build: func(s GraphSpec) (core.Topology, error) {
				return graph.DenseMinDegree(s.N, s.Alpha, rng.New(s.Seed)), nil
			},
		},
		&familyDef{
			name: "sbm", seeded: true,
			keyParams: func(s GraphSpec) []string {
				return []string{kv("a", s.A), kv("b", s.B), kv("pin", s.PIn), kv("pout", s.POut), kv("seed", s.Seed)}
			},
			validate: func(s GraphSpec, l Limits) error {
				if s.A < 1 || s.B < 1 || s.A+s.B < 3 {
					return fmt.Errorf("graph: sbm needs community sizes a, b >= 1 with a+b >= 3, got a = %d, b = %d", s.A, s.B)
				}
				// Bound each community before summing: two near-MaxInt sizes
				// would wrap a+b negative and slip past the limit.
				if s.A > l.MaxN || s.B > l.MaxN || s.A+s.B > l.MaxN {
					return fmt.Errorf("graph: sbm with a+b = %d vertices exceeds the limit %d", s.A+s.B, l.MaxN)
				}
				if !(s.PIn >= 0 && s.PIn <= 1 && s.POut >= 0 && s.POut <= 1) {
					return fmt.Errorf("graph: sbm needs pin, pout in [0, 1], got pin = %v, pout = %v", s.PIn, s.POut)
				}
				if s.PIn == 0 && s.POut == 0 {
					return fmt.Errorf("graph: sbm needs pin or pout positive, got both zero")
				}
				return nil
			},
			edges: func(s GraphSpec) int64 {
				within := float64(s.A)*float64(s.A-1)/2 + float64(s.B)*float64(s.B-1)/2
				across := float64(s.A) * float64(s.B)
				return int64(within*s.PIn + across*s.POut)
			},
			build: func(s GraphSpec) (core.Topology, error) {
				g := graph.SBM(s.A, s.B, s.PIn, s.POut, rng.New(s.Seed))
				if g.MinDegree() == 0 {
					return nil, fmt.Errorf("graph: sbm(a=%d, b=%d, pin=%v, pout=%v, seed=%d) has an isolated vertex; raise pin/pout or change the seed", s.A, s.B, s.PIn, s.POut, s.Seed)
				}
				return g, nil
			},
		},
		&familyDef{
			name: "cycle", usesN: true,
			minDegree: func(s GraphSpec) (int, bool) { return 2, true },
			keyParams: func(s GraphSpec) []string { return []string{kv("n", s.N)} },
			validate:  needN,
			edges:     func(s GraphSpec) int64 { return int64(s.N) },
			build:     func(s GraphSpec) (core.Topology, error) { return graph.Cycle(s.N), nil },
		},
		&familyDef{
			name:      "torus",
			minDegree: func(s GraphSpec) (int, bool) { return 4, true },
			keyParams: func(s GraphSpec) []string {
				return []string{kv("rows", s.Rows), kv("cols", s.Cols)}
			},
			validate: func(s GraphSpec, l Limits) error {
				if s.Rows < 3 || s.Cols < 3 {
					return fmt.Errorf("graph: torus needs rows, cols >= 3, got %d×%d", s.Rows, s.Cols)
				}
				// Bound each dimension before multiplying: with both ≤ MaxN
				// the int64 product cannot wrap, whereas rows = cols = 2^32
				// would overflow straight past the limit.
				if s.Rows > l.MaxN || s.Cols > l.MaxN ||
					int64(s.Rows)*int64(s.Cols) > int64(l.MaxN) {
					return fmt.Errorf("graph: torus %d×%d exceeds the limit of %d vertices", s.Rows, s.Cols, l.MaxN)
				}
				return nil
			},
			edges: func(s GraphSpec) int64 { return 2 * int64(s.Rows) * int64(s.Cols) },
			build: func(s GraphSpec) (core.Topology, error) { return graph.Torus2D(s.Rows, s.Cols), nil },
		},
		&familyDef{
			name:      "hypercube",
			minDegree: func(s GraphSpec) (int, bool) { return s.Dim, true },
			keyParams: func(s GraphSpec) []string {
				return []string{kv("dim", s.Dim)}
			},
			validate: func(s GraphSpec, l Limits) error {
				// Bound dim itself before shifting: 1<<63 is negative and
				// 1<<64 wraps to zero, either of which would sail past the
				// limit check.
				if s.Dim < 2 || s.Dim > 30 || 1<<s.Dim > l.MaxN {
					return fmt.Errorf("graph: hypercube needs 2 <= dim <= 30 and 2^dim <= %d, got dim = %d", l.MaxN, s.Dim)
				}
				return nil
			},
			edges: func(s GraphSpec) int64 {
				// Total on garbage input: validation rejects dims outside
				// [2, 30], and a negative or huge dim must not panic the
				// shift here.
				if s.Dim < 1 || s.Dim > 30 {
					return 0
				}
				return int64(s.Dim) << (s.Dim - 1)
			},
			build: func(s GraphSpec) (core.Topology, error) { return graph.Hypercube(s.Dim), nil },
		},
	)
}
