package dynamics

// prefetchRow asks the CPU to load the cache lines holding first and last
// (PREFETCHT0) and returns at once. It reads nothing into the program, so
// it cannot change any result.
//
//go:noescape
func prefetchRow(first, last *int32)
