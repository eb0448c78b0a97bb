// Mixedworkload demonstrates the self-tuning behaviour of the adaptable
// spatial buffer (the experiment behind Fig. 14 of the paper): the query
// profile changes from intensified to uniform to similar, and the ASB
// shifts the balance between its LRU and spatial components accordingly —
// without any manual tuning.
//
//	go run ./examples/mixedworkload
package main

import (
	"fmt"
	"log"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/obs"
	"repro/internal/page"
	"repro/internal/queryset"
	"repro/internal/trace"
)

func main() {
	db, err := experiment.Get(1, experiment.Options{Objects: 60_000, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: %d pages\n", db.Name, db.Stats.TotalPages())

	// Three phases with different profiles, as in the paper's Fig. 14.
	intW, err := db.QuerySet("INT-W-100", 800, 1)
	if err != nil {
		log.Fatal(err)
	}
	uniW, err := db.QuerySet("U-W-100", 800, 1)
	if err != nil {
		log.Fatal(err)
	}
	simW, err := db.QuerySet("S-W-100", 800, 1)
	if err != nil {
		log.Fatal(err)
	}
	mixed := queryset.Concat("mixed", intW, uniW, simW)

	frames := db.Frames(0.047)
	pol := core.NewASB(frames, core.DefaultASBOptions())
	buf, err := buffer.NewEngine(db.Store, pol, frames)
	if err != nil {
		log.Fatal(err)
	}
	// The candidate-set trajectory comes from the observability layer: a
	// trajectory recorder samples the size at every Adapt event.
	rec := obs.NewTrajectoryRecorder()
	buf.SetSink(rec)

	fmt.Printf("buffer %d frames: main part %d, overflow %d, initial candidate set %d\n\n",
		frames, pol.MainCapacity(), pol.OverflowCapacity(), pol.CandidateSize())

	// Run the phases back to back on the same (never cleared) buffer and
	// report the candidate size as the profile shifts.
	phaseEnd := []int{intW.Len(), intW.Len() + uniW.Len(), mixed.Len()}
	phaseName := []string{"intensified (INT-W-100)", "uniform (U-W-100)", "similar (S-W-100)"}
	phase := 0
	for i, q := range mixed.Queries {
		ctx := buffer.AccessContext{QueryID: q.ID}
		if err := db.Tree.Search(buf, ctx, q.Rect, func(page.Entry) bool { return true }); err != nil {
			log.Fatal(err)
		}
		if i+1 == phaseEnd[phase] {
			fmt.Printf("after %-24s candidate set = %4d / %d (%4.0f%% of main part), %d adaptations so far\n",
				phaseName[phase]+":", pol.CandidateSize(), pol.MainCapacity(),
				float64(pol.CandidateSize())/float64(pol.MainCapacity())*100,
				pol.Adaptations())
			phase++
		}
	}

	lo, hi := pol.MainCapacity(), 1
	for _, c := range rec.Cand {
		if c < lo {
			lo = c
		}
		if c > hi {
			hi = c
		}
	}
	fmt.Printf("\ncandidate-set range over the session: %d – %d frames\n", lo, hi)

	bs := buf.Stats()
	fmt.Printf("total: %d requests, %.1f%% hit ratio, %d disk accesses\n",
		bs.Requests, bs.HitRatio()*100, bs.DiskReads())

	// Compare against a static LRU buffer on the identical workload.
	lruStats, err := trace.RunLive(db.Tree, mixed, mustEngine(db, core.NewLRU(), frames))
	if err != nil {
		log.Fatal(err)
	}
	gain := (float64(lruStats.DiskReads())/float64(bs.DiskReads()) - 1) * 100
	fmt.Printf("plain LRU on the same workload: %d disk accesses → ASB gain %+.1f%%\n",
		lruStats.DiskReads(), gain)
}

func mustEngine(db *experiment.Database, pol buffer.Policy, frames int) *buffer.Engine {
	m, err := buffer.NewEngine(db.Store, pol, frames)
	if err != nil {
		log.Fatal(err)
	}
	return m
}
