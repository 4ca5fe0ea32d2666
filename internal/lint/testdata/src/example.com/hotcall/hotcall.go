// Package hotcall exercises the hotpathcall analyzer: in-package and
// cross-package call-graph closure of //jx:hotpath, the //jx:coldpath
// escape, indirect calls, method values, and interface resolution.
package hotcall

import (
	"math/bits"
	"sync"
	"weak"

	"example.com/coldlib"
)

var mu sync.Mutex

// helper is untagged: hot paths may not call it.
func helper(n int) []int { return make([]int, n) }

// inner is hot and callable from hot.
//
//jx:hotpath
func inner(x int) int { return x + 1 }

// setup is a designated in-package cold helper.
//
//jx:coldpath fixture: allocation for never-before-seen structure
func setup(n int) []int { return make([]int, n) }

// badCold is missing its mandatory reason.
//
//jx:coldpath
func badCold() {} // want `//jx:coldpath directive on badCold requires a reason`

// callsHelper calls an untagged in-package function.
//
//jx:hotpath
func callsHelper(n int) []int {
	return helper(n) // want `hot-path function callsHelper calls helper`
}

// outer chains hot to hot, cold, builtins, and intrinsics.
//
//jx:hotpath
func outer(xs []int) int {
	mu.Lock()
	x := inner(len(xs))
	x += bits.OnesCount64(uint64(x))
	if xs == nil {
		x += len(setup(4))
	}
	mu.Unlock()
	return x
}

// crossOK calls a dependency function whose AllocFree fact arrived
// through the shared store.
//
//jx:hotpath
func crossOK(x int) int {
	return coldlib.Fast(x)
}

// crossCold calls a dependency cold helper (ColdPath fact).
//
//jx:hotpath
func crossCold(n int) []int {
	return coldlib.Slow(n)
}

// crossBad calls an untagged dependency function.
//
//jx:hotpath
func crossBad(n int) []int {
	return coldlib.Alloc(n) // want `hot-path function crossBad calls example.com/coldlib\.Alloc`
}

// viaParam invokes a function-typed parameter: the caller's contract.
//
//jx:hotpath
func viaParam(f func() int) int {
	return f()
}

// viaLocal invokes a local function value, which cannot be attributed.
//
//jx:hotpath
func viaLocal() int {
	f := func() int { return 1 }
	return f() // want `calls through function value f`
}

type handlers struct{ fn func() int }

// viaField invokes a function-valued struct field.
//
//jx:hotpath
func viaField(h handlers) int {
	return h.fn() // want `calls through function-valued field fn`
}

type counter struct{ n int }

func (c *counter) bump() { c.n++ }

//jx:hotpath
func (c *counter) tick() { c.n++ }

// escapeMethod lets an untagged method escape as a func value.
//
//jx:hotpath
func escapeMethod(c *counter) func() {
	return c.bump // want `takes a method value of \(\*example.com/hotcall\.counter\)\.bump`
}

// escapeHotMethod escapes a tagged method: allowed.
//
//jx:hotpath
func escapeHotMethod(c *counter) func() {
	return c.tick
}

type summer interface{ Sum(int) int }

type taggedImpl struct{}

// Sum is hot, so interface calls resolving to it are fine.
//
//jx:hotpath
func (taggedImpl) Sum(x int) int { return x }

type untaggedImpl struct{}

func (untaggedImpl) Sum(x int) int { return x * 2 }

// viaInterface calls through an interface with a mixed concrete set: the
// untagged implementation is reported.
//
//jx:hotpath
func viaInterface(s summer) int {
	return s.Sum(3) // want `concrete method \(example.com/hotcall\.untaggedImpl\)\.Sum`
}

type stringer interface{ Str() string }

// viaOpaque calls through an interface nothing in this package implements.
//
//jx:hotpath
func viaOpaque(s stringer) string {
	return s.Str() // want `calls Str through an interface with no in-package implementation`
}

// gmax is a hot generic helper.
//
//jx:hotpath
func gmax[T int | int64](a, b T) T {
	if a > b {
		return a
	}
	return b
}

// useGeneric instantiates and calls a hot generic function.
//
//jx:hotpath
func useGeneric(a, b int) int { return gmax[int](a, b) }

// stack is a generic type with one hot and one untagged method.
type stack[T any] struct{ items []T }

//jx:hotpath
func (s *stack[T]) push(x T) { s.items = append(s.items, x) }

func (s *stack[T]) grow(n int) { s.items = make([]T, 0, n) }

// useGenericMethods calls methods of an instantiated generic type: the
// instantiation carries its declaration's tag, or its lack of one.
//
//jx:hotpath
func useGenericMethods(s *stack[int]) {
	s.push(1)
	s.grow(4) // want `hot-path function useGenericMethods calls grow`
}

// deref reads a weak pointer, which is an intrinsic, but may not make
// one: weak.Make allocates the pointer's handle on first use.
//
//jx:hotpath
func deref(w weak.Pointer[counter], c *counter) int {
	if p := w.Value(); p != nil {
		return p.n
	}
	return weak.Make(c).Value().n // want `hot-path function deref calls weak\.Make`
}
