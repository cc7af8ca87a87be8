package check

import (
	"fmt"
	"os"
	"testing"

	"mpisim/internal/apps"
)

var sinkResult *Result

// BenchmarkCheckRun is the verifier's committed trajectory
// (results/bench_check.txt): the whole of check.Run — graph build,
// compile, per-rank evaluation, all passes — on the three paper apps at
// the rank counts a prediction is checked at. Time per rank should stay
// flat from 1024 to 16384 (the passes are linear in total ops); the
// 16384 rows run only with MPISIM_BENCH_LARGE set. The 16- and 64-rank
// rows sit either side of classMinRanks: the first is what rank classes
// must not tax, the second the smallest run they have to pay at.
func BenchmarkCheckRun(b *testing.B) {
	for _, name := range []string{"sweep3d", "nassp", "tomcatv"} {
		for _, ranks := range []int{16, 64, 1024, 4096, 16384} {
			b.Run(fmt.Sprintf("%s/%d", name, ranks), func(b *testing.B) {
				if ranks > 4096 && os.Getenv("MPISIM_BENCH_LARGE") == "" {
					b.Skip("set MPISIM_BENCH_LARGE=1 for the 16384-rank rows")
				}
				spec := apps.Registry()[name]
				p, inputs := spec.Build(), spec.Default(ranks)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res, err := Run(p, Options{Ranks: ranks, Inputs: inputs})
					if err != nil {
						b.Fatal(err)
					}
					sinkResult = res
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(ranks), "ns/rank")
			})
		}
	}
}
