package jsontype

// Hooks for the tests: the interner's entry count and sweep, and the
// hashes the external tests in package jsontype_test read (they import
// the dataset generators, and so cannot sit inside this package).

// CanonHash is the reservoir's hash of t's canonical form, streamed
// without rendering it.
func CanonHash(t *Type) uint64 { return t.canonHash(fnvOffset) }

// RenderedCanonHash is FNV-1a over the canonical form as appendCanon
// writes it: the bytes CanonHash must hash.
func RenderedCanonHash(t *Type) uint64 { return fnv1a(fnvOffset, t.appendCanon(nil)) }

// HasCachedCanon reports whether t's canonical string has been built.
func HasCachedCanon(t *Type) bool { return t.canon.Load() != nil }

// InternEntries counts the interner's entries, live or not yet swept.
func InternEntries() int {
	n := 0
	for i := range internShards {
		s := &internShards[i]
		s.mu.Lock()
		n += len(s.m)
		for _, b := range s.more {
			n += len(b)
		}
		s.mu.Unlock()
	}
	return n
}

// SweepInterner sweeps every shard now, as each would once a GC cycle
// has completed and enough inserts have arrived.
func SweepInterner() {
	for i := range internShards {
		s := &internShards[i]
		s.mu.Lock()
		s.sweep()
		s.mu.Unlock()
	}
}

// GCCycles is the interner's count of completed GC cycles.
func GCCycles() uint64 { return gcCycles.Load() }
