// Package parallel provides small, dependency-free primitives for
// data-parallel execution: a chunked parallel-for over indices (For) and
// over contiguous sub-ranges (ForRange).
//
// The package is the concurrency substrate for the tensor engine and the
// scene renderer. All primitives are deterministic with respect to the
// work they perform (only scheduling order varies), so results of
// associative-free computations are bit-reproducible.
package parallel
