package reform

import (
	"testing"

	"repro/internal/benchsuite"
)

// BenchmarkSuite runs every entry of benchsuite.Table, the bodies
// `reform bench` runs over the same fixtures, as Suite/<Name>. A body is
// built when its entry first runs, because building one may change the
// fixture it shares (ProtocolRoundLarge's warm-up churns), so an entry
// -bench filters out must not be built either.
func BenchmarkSuite(b *testing.B) {
	f := benchsuite.NewFixtures(benchsuite.LargePeers)
	for _, e := range benchsuite.Table {
		var body func(b *testing.B)
		b.Run(e.Name, func(b *testing.B) {
			if body == nil {
				body = e.New(f)
				b.ResetTimer()
			}
			body(b)
		})
	}
}
