//go:build amd64 && !amd64.v2

package codec

// goldenDigestSkip is empty where the recorded digests apply: amd64 at
// the default GOAMD64=v1, where the compiler never fuses a multiply and
// an add into one rounding step.
const goldenDigestSkip = ""
