package core_test

import (
	"math/rand"
	"testing"

	"repro/internal/buffer"
	"repro/internal/core"
)

// benchAccesses builds a skewed synthetic reference string over pages of
// mixed areas.
func benchAccesses(numPages, n int) ([]access, []pageSpec) {
	rng := rand.New(rand.NewSource(1))
	specs := make([]pageSpec, numPages)
	for i := range specs {
		specs[i] = dataPage(float64(rng.Intn(500) + 1))
	}
	seq := make([]access, n)
	for i := range seq {
		var id int
		if rng.Intn(2) == 0 {
			id = rng.Intn(numPages/10) + 1 // hot subset
		} else {
			id = rng.Intn(numPages) + 1
		}
		seq[i] = q(pageID(id), uint64(i/4))
	}
	return seq, specs
}

// BenchmarkPolicyOps measures per-request overhead of each policy at a
// 256-frame buffer on a skewed reference string.
func BenchmarkPolicyOps(b *testing.B) {
	const numPages = 2048
	seq, specs := benchAccesses(numPages, 1<<16)
	for _, f := range core.StandardFactories() {
		f := f
		b.Run(f.Name, func(b *testing.B) {
			s := buildStoreB(b, specs)
			m, err := buffer.NewEngine(s, f.New(256), 256)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a := seq[i%len(seq)]
				if _, err := m.Get(a.id, buffer.AccessContext{QueryID: a.query}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
