package engine

import (
	"context"
	"testing"
	"time"
)

// TestSharedPartitionBatch runs the paper-shaped comparison — every
// case on one (graph, topology, rep) — in SharedPartition mode and
// checks (a) all partition-based cases of a rep really computed on one
// partition (the artifact cache reports exactly one build per rep),
// (b) the DRB case is untouched, and (c) the default mode stays
// byte-identical to an engine with the cache disabled.
func TestSharedPartitionBatch(t *testing.T) {
	batch := func(shared bool) BatchSpec {
		return BatchSpec{
			Graphs:          []GraphSpec{{Network: "p2p-Gnutella", Scale: 0.05}},
			Topologies:      []string{"grid:4x4"},
			Reps:            2,
			Seed:            5,
			NumHierarchies:  2,
			SharedPartition: shared,
		}
	}
	runCases := func(e *Engine, shared bool) map[string][]*JobResult {
		out := make(map[string][]*JobResult)
		for _, c := range Cases() {
			b := batch(shared)
			b.Case = c
			jobs, err := e.RunBatch(b)
			if err != nil {
				t.Fatal(err)
			}
			for _, j := range jobs {
				if j.Status != StatusDone {
					t.Fatalf("%s: job %s: %s", c, j.ID, j.Error)
				}
				out[c.String()] = append(out[c.String()], j.Result)
			}
		}
		return out
	}

	eShared := New(Options{Workers: 2})
	defer eShared.Close()
	shared := runCases(eShared, true)

	// One partition build per rep: the three partition-based cases (c2,
	// c3, c4) × 2 reps are 6 partition stages served by 2 builds. The
	// graph and topology artifacts are built once each for all 8 jobs.
	st := eShared.Stats().Artifacts
	if st == nil {
		t.Fatal("artifact stats missing with the cache enabled")
	}
	partBuilds := st.Misses - 2 // one miss each for the graph and the topology
	if partBuilds != 2 {
		t.Errorf("shared mode computed %d partitions for 2 reps, want 2 (stats %+v)", partBuilds, st)
	}
	reusedJobs := 0
	for _, c := range []string{"IDENTITY", "GREEDYALLC", "GREEDYMIN"} {
		for _, r := range shared[c] {
			if r.PartitionReused {
				reusedJobs++
			}
		}
	}
	if reusedJobs != 4 {
		t.Errorf("%d jobs report partition reuse, want 4 (3 cases x 2 reps minus 2 builds)", reusedJobs)
	}
	for _, r := range shared["SCOTCH"] {
		if r.PartitionReused {
			t.Error("DRB (c1) job reports partition reuse; it has no partition stage")
		}
	}
	// Same partition ⇒ identical pre-enhancement cut for c2–c4 of a rep
	// (the cut is a partition property, independent of block→PE
	// placement).
	for rep := 0; rep < 2; rep++ {
		c2 := shared["IDENTITY"][rep]
		for _, c := range []string{"GREEDYALLC", "GREEDYMIN"} {
			if got := shared[c][rep].CutBefore; got != c2.CutBefore {
				t.Errorf("rep %d: %s cut_before %d != IDENTITY's %d — partitions not shared", rep, c, got, c2.CutBefore)
			}
		}
	}

	// Default mode must not care whether the cache exists: byte-identical
	// quality with the cache on and off.
	eOn := New(Options{Workers: 2})
	defer eOn.Close()
	eOff := New(Options{Workers: 2, ArtifactCacheEntries: -1})
	defer eOff.Close()
	if eOff.Artifacts() != nil {
		t.Fatal("negative ArtifactCacheEntries did not disable the cache")
	}
	on, off := runCases(eOn, false), runCases(eOff, false)
	for c, rs := range on {
		for rep, r := range rs {
			o := off[c][rep]
			if r.CocoBefore != o.CocoBefore || r.CocoAfter != o.CocoAfter ||
				r.CutBefore != o.CutBefore || r.CutAfter != o.CutAfter {
				t.Errorf("default mode diverges with cache on/off: %s rep %d: %+v vs %+v", c, rep, r, o)
			}
		}
	}
	// In default mode the per-case seed spreading must keep partitions
	// distinct (cut_before almost surely differs across cases).
	if on["IDENTITY"][0].CutBefore == on["GREEDYALLC"][0].CutBefore &&
		on["IDENTITY"][1].CutBefore == on["GREEDYALLC"][1].CutBefore {
		t.Error("default mode looks like it shared partitions across cases")
	}
}

func TestSharedPartitionSeedAlgebra(t *testing.T) {
	for rep := 0; rep < 3; rep++ {
		if got, want := SharedPartitionSeed(9, rep), BatchSeed(9, rep, C1SCOTCH); got != want {
			t.Errorf("rep %d: SharedPartitionSeed = %d, want BatchSeed(c1) = %d", rep, got, want)
		}
	}
}

// TestWaitCtxCancel covers the mapd-handler shape: a client that
// disconnects mid-job must get its wait released promptly while the job
// keeps running to completion.
func TestWaitCtxCancel(t *testing.T) {
	e := New(Options{Workers: 1})
	defer e.Close()
	// A job big enough to still be running when the canceled wait returns.
	job, err := e.Submit(JobSpec{
		Graph:          GraphSpec{Network: "PGPgiantcompo", Scale: 0.25, Seed: 1},
		Topology:       "grid:8x8",
		NumHierarchies: 8,
		Seed:           3,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if _, err := e.WaitCtx(ctx, job.ID); err != context.Canceled {
		t.Fatalf("WaitCtx on canceled context = %v, want context.Canceled", err)
	}
	if waited := time.Since(start); waited > 2*time.Second {
		t.Errorf("canceled WaitCtx took %v to return", waited)
	}
	// The abandoned job still finishes and stays waitable.
	done, err := e.Wait(job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if done.Status != StatusDone {
		t.Fatalf("job after abandoned wait: %s (%s)", done.Status, done.Error)
	}
	if _, err := e.WaitCtx(context.Background(), "job-999999"); err == nil {
		t.Error("WaitCtx on unknown job did not fail")
	}
}
