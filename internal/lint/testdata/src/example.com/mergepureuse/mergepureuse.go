// Package mergepureuse exercises mergepure: package-state writes,
// non-deterministic sources (direct, transitive, and %p formatting),
// map-order leaks, operand mutation and adoption, the consuming and
// immutable carve-outs, and the tag-suggestion fix for unexported
// merge-shaped methods.
package mergepureuse

import (
	"fmt"
	"math/rand"
	"time"
)

// Sym is interned and never mutated after construction.
//
//jx:immutable
type Sym struct{ name string } // want-fact Immutable

var global int

// Counter merges order-insensitively and shares only immutable
// pointers: clean.
type Counter struct {
	counts map[string]int
	total  int
	sym    *Sym
}

// Merge folds counts; the map-order fold is commutative and the *Sym
// adoption is exempt via //jx:immutable.
func (c *Counter) Merge(other *Counter) {
	for k, v := range other.counts {
		c.counts[k] += v
	}
	c.total += other.total
	c.sym = other.sym
}

// PState writes package state.
type PState struct{ n int }

// Merge bumps a global.
func (p *PState) Merge(other *PState) {
	global++ // want `monoid merge writes package state global`
	p.n += other.n
}

// NDet consults math/rand.
type NDet struct{ n int }

// Combine flips a random coin.
func (d *NDet) Combine(other *NDet) {
	if rand.Int()%2 == 0 { // want `monoid merge calls non-deterministic math/rand\.Int`
		d.n += other.n
	}
}

// PFmt formats a pointer address.
type PFmt struct{ id string }

// Merge bakes an address into the result.
func (k *PFmt) Merge(other *PFmt) {
	k.id = fmt.Sprintf("%p", other) // want `monoid merge calls non-deterministic fmt\.Sprintf with %p`
}

// stamp reaches time.Now, so callers inherit the taint.
func stamp() int { // want-fact Nondet
	return int(time.Now().UnixNano())
}

// TStamp goes non-deterministic one call deep.
type TStamp struct{ n int }

// Merge calls the tainted helper.
func (t *TStamp) Merge(other *TStamp) {
	t.n = stamp() + other.n // want `monoid merge calls non-deterministic example.com/mergepureuse\.stamp`
}

// Mut guts its operand without declaring consumption.
type Mut struct{ n int }

// Merge zeroes the operand the caller still holds.
func (m *Mut) Merge(other *Mut) {
	m.n += other.n
	other.n = 0 // want `monoid merge mutates its operand through other\.n; the caller's sibling subtree still holds it \(tag //jx:monoid consuming if ownership transfer is intended\)`
}

// Mut2 mutates through a callee instead.
type Mut2 struct{ n int }

// reset writes through its receiver.
func (m *Mut2) reset() { // want-fact MutatesParam
	m.n = 0
}

// Merge hands the operand to the mutating method.
func (m *Mut2) Merge(other *Mut2) {
	m.n += other.n
	other.reset() // want `monoid merge passes its operand to reset, which mutates it \(tag //jx:monoid consuming if ownership transfer is intended\)`
}

// counts is a generic list whose method writes through its receiver.
type counts[K comparable] struct{ keys []K }

// add appends to the receiver's list.
func (c *counts[K]) add(k K) { // want-fact MutatesParam
	c.keys = append(c.keys, k)
}

// Mut3 mutates through a method of an instantiated generic type.
type Mut3 struct{ c counts[string] }

// Merge hands a field of the operand to the mutating generic method.
func (m *Mut3) Merge(other *Mut3) {
	m.c.add("x")
	other.c.add("x") // want `monoid merge passes its operand to add, which mutates it \(tag //jx:monoid consuming if ownership transfer is intended\)`
}

// Adopt aliases its operand's buffer.
type Adopt struct{ buf []byte }

// Merge keeps a live reference into the operand.
func (a *Adopt) Merge(other *Adopt) {
	a.buf = other.buf // want `monoid merge adopts the mutable reference other\.buf from its operand; mutating the merged receiver later would corrupt the operand too \(copy it, or tag //jx:monoid consuming\)`
}

// Ord builds ordered output from an unordered map.
type Ord struct {
	m     map[string]int
	names []string
	sig   string
}

// Merge leaks iteration order twice.
func (o *Ord) Merge(other *Ord) {
	for k := range other.m {
		o.names = append(o.names, k) // want `monoid merge appends in map iteration order; ordered output from an unordered map differs run to run`
	}
	for k := range other.m {
		o.sig += k // want `monoid merge concatenates strings in map iteration order; ordered output from an unordered map differs run to run`
	}
}

// Pool demonstrates the consuming flavor and the tag suggestion.
type Pool struct {
	items []string
	n     int
}

// absorb owns its operand outright: adoption and mutation are the
// declared protocol.
//
//jx:monoid consuming
func (a *Pool) absorb(other *Pool) {
	a.items = other.items
	other.items = nil
	a.n += other.n
}

func (p *Pool) combineShared(other *Pool) { // want `Pool\.combineShared has the monoid merge shape; tag it //jx:monoid \(or //jx:monoid consuming\) so its purity is checked` // want-fix `tag the method //jx:monoid \+"//jx:monoid\\n"`
	p.n += other.n
}

// add is tagged but does not have the monoid shape.
//
//jx:monoid
func (p *Pool) add(x int) { // want `//jx:monoid on Pool\.add has no effect: a monoid merge takes exactly one parameter of the receiver type`
	p.n += x
}

// keep the helpers alive for the type checker.
var _ = func() {
	p := &Pool{}
	p.absorb(&Pool{})
	p.combineShared(&Pool{})
	p.add(1)
}
