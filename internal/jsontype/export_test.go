package jsontype

// Hooks for the external tests in package jsontype_test, which import the
// dataset generators (and so cannot sit inside this package).

// CanonHash is the reservoir's hash of t's canonical form, streamed
// without rendering it.
func CanonHash(t *Type) uint64 { return t.canonHash(fnvOffset) }

// RenderedCanonHash is FNV-1a over the canonical form as appendCanon
// writes it: the bytes CanonHash must hash.
func RenderedCanonHash(t *Type) uint64 { return fnv1a(fnvOffset, t.appendCanon(nil)) }

// HasCachedCanon reports whether t's canonical string has been built.
func HasCachedCanon(t *Type) bool { return t.canon.Load() != nil }
