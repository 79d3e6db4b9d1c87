package experiments

import (
	"fmt"
	"testing"
)

// BenchmarkFig10EncoderScaling is the real-throughput figure: it exists as
// an experiment too, but here each worker count is its own sub-benchmark
// so `-bench Fig10` prints the scaling series directly.
func BenchmarkFig10EncoderScaling(b *testing.B) {
	payload := make([]byte, 512)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("threads-%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(payload)))
			b.ReportMetric(measurePipeline(workers, b.N, payload), "Kpps")
		})
	}
}
