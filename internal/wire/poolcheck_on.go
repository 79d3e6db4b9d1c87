//go:build poolcheck

package wire

// poolCheck: built with -tags poolcheck, Put overwrites every buffer it
// takes, so a holder that kept a reference to bytes it handed back reads
// 0xEE instead of what it kept, and the tests that compare bytes fail.
const poolCheck = true

func scribble(buf []byte) {
	for i := range buf {
		buf[i] = 0xEE
	}
}
