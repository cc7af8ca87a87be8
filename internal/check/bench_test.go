package check

import (
	"fmt"
	"os"
	"testing"

	"mpisim/internal/apps"
	"mpisim/internal/ir"
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

// BenchmarkCheckRunNoClasses is the other side of the trade: an
// all-to-all whose every rank is its own window (each rank's wrap-around
// is a different offset), plus a gather to rank 0 by absolute peers, so
// check.Run pays for windows and link tables per rank. The 1024-rank row
// runs only with MPISIM_BENCH_LARGE set.
func BenchmarkCheckRunNoClasses(b *testing.B) {
	p := ir.MustParse(`program alltoall
  double precision A(4)
  do k = 1, (P - 1)
    SEND A(1:4) to ((myid + k) % P) tag 1
  enddo
  do k = 1, (P - 1)
    RECV A(1:4) from ((myid + P - k) % P) tag 1
  enddo
  if ((myid > 0)) then
    SEND A(1:4) to 0 tag 2
  endif
  if ((myid == 0)) then
    do r = 1, (P - 1)
      RECV A(1:4) from r tag 2
    enddo
  endif
end`)
	for _, ranks := range []int{256, 1024} {
		b.Run(fmt.Sprintf("alltoall/%d", ranks), func(b *testing.B) {
			if ranks > 256 && os.Getenv("MPISIM_BENCH_LARGE") == "" {
				b.Skip("set MPISIM_BENCH_LARGE=1 for the 1024-rank row")
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := Run(p, Options{Ranks: ranks})
				if err != nil {
					b.Fatal(err)
				}
				sinkResult = res
			}
		})
	}
}
