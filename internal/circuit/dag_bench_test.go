package circuit_test

import (
	"sort"
	"testing"

	"github.com/guoq-dev/guoq/internal/circuit"
)

// BenchmarkDAGRebuild builds the DAG of the median-size ibm-eagle suite
// circuit from scratch, as the stateless FullPass does on every call.
func BenchmarkDAGRebuild(b *testing.B) {
	suite := eagleSuite(b)
	sort.SliceStable(suite, func(i, j int) bool { return suite[i].Len() < suite[j].Len() })
	c := suite[len(suite)/2]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		circuit.BuildDAG(c)
	}
}
