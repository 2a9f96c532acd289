// Package globalrand exercises the global-rand analyzer: draws from the
// global math/rand stream fire, seeded streams and their methods stay
// silent, and a reviewed suppression removes a finding without shielding
// its sibling.
package globalrand

import "math/rand"

// Bad draws from the global stream twice.
func Bad() float64 {
	x := rand.Float64() // want "global random stream"
	n := rand.Intn(10)  // want "global random stream"
	return x + float64(n)
}

// Good seeds its own stream; methods on a seeded *rand.Rand are the
// deterministic idiom.
func Good(seed int64) float64 {
	rng := rand.New(rand.NewSource(seed))
	return rng.Float64()
}

// Suppressed carries a reviewed annotation; the sibling draw still fires.
func Suppressed() float64 {
	// ditto:determinism-ok fixture: reviewed global draw
	a := rand.Float64()

	b := rand.Float64() // want "global random stream"
	return a + b
}
