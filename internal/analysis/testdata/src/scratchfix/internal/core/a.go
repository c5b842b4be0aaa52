// Fixture for the scratchalias analyzer: the import path ends in
// internal/core, so exported functions must not leak scratch state.
package core

type S struct {
	scratch []complex128
	cache   map[int][]complex128
}

var table []complex128

// Leak returns the receiver's scratch buffer directly.
func (s *S) Leak() []complex128 {
	return s.scratch // want `exported Leak returns receiver scratch field scratch`
}

// LeakSliced re-slicing still aliases the same backing array.
func (s *S) LeakSliced() []complex128 {
	return s.scratch[:2] // want `exported LeakSliced returns receiver scratch field scratch`
}

// LeakMap returns an aliasable reference-typed field.
func (s *S) LeakMap() map[int][]complex128 {
	return s.cache // want `exported LeakMap returns receiver scratch field cache`
}

// Copy is the sanctioned shape.
func (s *S) Copy() []complex128 {
	out := make([]complex128, len(s.scratch))
	copy(out, s.scratch)
	return out
}

// internal helpers may alias freely; the invariant is about the API
// boundary.
func (s *S) internalView() []complex128 {
	return s.scratch
}

// Table returns a package-level buffer.
func Table() []complex128 {
	return table // want `exported Table returns package-level buffer table`
}

// View documents an intentional read-only exposure.
func (s *S) View() []complex128 {
	return s.scratch //bluefi:alias-ok documented read-only view, callers must not write or retain
}
