//go:build !amd64

package dynamics

// prefetchRow is a no-op off amd64, where no prefetch stub exists.
func prefetchRow(first, last *int32) {}
