//go:build amd64 || arm64

package main

// getg returns the address of the running goroutine's runtime
// descriptor. The traced run uses it only as an identity, to charge a
// lock span to the client whose store call made it: a sync.Locker
// method has no other way to learn its caller, and the descriptor of a
// live goroutine never moves.
func getg() uintptr
