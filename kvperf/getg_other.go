//go:build !amd64 && !arm64

package main

import (
	"bytes"
	"runtime"
	"strconv"
)

// getg returns the running goroutine's id, parsed from its stack
// header ("goroutine N [...]"). It is slow, so traced runs on these
// architectures report inflated lock spans, but attribution stays exact.
func getg() uintptr {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	if i := bytes.IndexByte(b, ' '); i > 0 {
		b = b[:i]
	}
	id, _ := strconv.ParseUint(string(b), 10, 64)
	return uintptr(id)
}
