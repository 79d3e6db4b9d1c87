//go:build !poolcheck

package wire

// poolCheck is off in normal builds: Put keeps a buffer's bytes as they
// are (see poolcheck_on.go).
const poolCheck = false

func scribble([]byte) {}
