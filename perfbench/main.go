// Command perfbench is the repository's end-to-end benchmark: closed-loop
// clients send spatial queries and updates through the R*-tree, a
// buffer pool composition, the ASB policy and a page store, over the
// paper's database 1. It prints the end-to-end metrics of an untraced
// run, or with -trace 1 the per-layer metrics of a traced run, and as
// its last line a JSON object with the correctness verdict.
//
//	go run . -workload points-hot -seed 1 -seconds 20 -trace 0
//
// README.md describes the workloads and metrics; run.sh builds and runs
// it from the repository root.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
	"time"
)

func main() {
	name := flag.String("workload", "", "workload to run (points-hot, windows-cold-file, updates-file)")
	seed := flag.Int64("seed", 1, "seed of the database and the workload's inputs")
	seconds := flag.Int("seconds", 20, "length of the measured phase in seconds")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	dir := flag.String("dir", ".bench_build", "directory for the file stores")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace, *dir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds, trace int, dir string) error {
	w, err := lookupWorkload(name)
	if err != nil {
		return err
	}
	if seconds < 1 || (trace != 0 && trace != 1) {
		return fmt.Errorf("want -seconds ≥ 1 and -trace 0 or 1")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(dir, "perfbench-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	o := options{seed: seed, objects: dbObjects, dir: tmp, updateOps: updatesPerSecond * seconds}
	d := time.Duration(seconds) * time.Second
	var r *result
	if trace == 1 {
		r, err = runTraced(w, o, d)
	} else {
		r, err = runUntraced(w, o, d)
	}
	if err != nil {
		return err
	}
	inst := r.inst
	fmt.Printf("workload %s: DB1 %d objects, %d pages, %d frames (%.1f%%), %s, policy %s, %d closed-loop clients, seed %d, trace %d\n",
		w.name, dbObjects, inst.pages, inst.frames, 100*float64(inst.frames)/float64(inst.pages),
		w.composition, policyName, len(inst.clients), seed, trace)
	fmt.Printf("timed phase: %d ops in %.3f s, %d latency samples in %d windows, %d attempted, %d failed\n",
		r.phase.ops, r.phase.elapsed.Seconds(), r.phase.samples, windows, r.Attempted, r.Failed)
	for i, w := range r.phase.windows {
		fmt.Fprintf(os.Stderr, "window %d: %d ops, %.0f ops/s, p50 %.3f us, p99 %.3f us\n",
			i, w.ops, float64(w.ops)/w.elapsed.Seconds(), w.p50/1e3, w.p99/1e3)
	}
	names := make([]string, 0, len(r.Metrics))
	for k := range r.Metrics {
		names = append(names, k)
	}
	slices.Sort(names)
	for _, k := range names {
		fmt.Printf("  %-32s %14.6g %s\n", k, r.Metrics[k].Value, r.Metrics[k].Unit)
	}
	out, err := json.Marshal(r)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}
