// Package lib declares one exported name of each kind the export gate
// judges: a used and an unused function, a type with a String method,
// a generic function and a generic type with a method.
package lib

import "fmt"

// Used has a caller in cmd/app.
func Used() int { return 1 }

// Unused has no caller outside its own test, so the gate reports it.
func Unused() int { return 2 }

// Kind is converted in cmd/app; nothing calls String by name, but it
// satisfies fmt.Stringer.
type Kind int

func (k Kind) String() string { return fmt.Sprintf("kind %d", int(k)) }

// Map is only ever called as an instantiation.
func Map[T, U any](xs []T, f func(T) U) []U {
	out := make([]U, len(xs))
	for i, x := range xs {
		out[i] = f(x)
	}
	return out
}

// Box's Get is only ever called on an instantiated type.
type Box[T any] struct{ v T }

func (b Box[T]) Get() T { return b.v }
