package main

import (
	"fmt"
	"time"

	"repro/internal/engine"
)

// batchSystem runs a batch workload on one in-process engine. Each
// round is a set of batches submitted at once through SubmitBatch; two
// rounds are kept in flight so the workers never idle between rounds.
type batchSystem struct {
	seed     int64
	eng      *engine.Engine
	perRound int
	round    func(seed int64, r int) []engine.BatchSpec
	next     int
}

func newBatchSystem(cfg config, perRound int, round func(int64, int) []engine.BatchSpec) (system, error) {
	eng := engine.New(engine.Options{Workers: loadWidth, ArtifactCacheBytes: artifactCacheBytes})
	for _, t := range cfg.workload.topologies {
		if _, err := eng.Topology(t); err != nil {
			eng.Close()
			return nil, err
		}
	}
	return &batchSystem{seed: cfg.seed, eng: eng, perRound: perRound, round: round}, nil
}

func (s *batchSystem) drive(start time.Time, window time.Duration, minJobs int, _ *tracer) []outcome {
	deadline := start.Add(window)
	minRounds := max(1, (minJobs+s.perRound-1)/s.perRound)
	first := s.next
	var inflight []chan []outcome
	var outs []outcome
	submit := func() {
		done := make(chan []outcome, 1)
		inflight = append(inflight, done)
		go s.wait(s.submitRound(s.next), done)
		s.next++
	}
	submit()
	submit()
	for len(inflight) > 0 {
		outs = append(outs, <-inflight[0]...)
		inflight = inflight[1:]
		if s.next-first < minRounds || time.Now().Before(deadline) {
			submit()
		}
	}
	return outs
}

// submitRound submits every batch of round r. An outcome whose id is
// empty was refused at submission; its err says why.
func (s *batchSystem) submitRound(r int) []outcome {
	var outs []outcome
	index := r * s.perRound
	for _, b := range s.round(s.seed, r) {
		specs, err := engine.ExpandBatch(b)
		if err != nil {
			panic(fmt.Sprintf("perfbench: workload builds an invalid batch: %v", err))
		}
		ids, err := s.eng.SubmitBatch(b)
		for k, spec := range specs {
			o := outcome{index: index, spec: spec, sent: time.Now()}
			index++
			if k < len(ids) {
				o.job.ID = ids[k]
			} else {
				o.err = fmt.Errorf("submit: %v", err)
				o.got = o.sent
			}
			outs = append(outs, o)
		}
	}
	return outs
}

// wait collects the final snapshot of every submitted job. Submission
// and completion times are the engine's own timestamps.
func (s *batchSystem) wait(outs []outcome, done chan<- []outcome) {
	for i := range outs {
		o := &outs[i]
		if o.err != nil {
			continue
		}
		job, err := s.eng.Wait(o.job.ID)
		if err != nil {
			o.err, o.got = err, time.Now()
			continue
		}
		o.job, o.sent, o.got = job, job.Submitted, job.Finished
	}
	done <- outs
}

func (s *batchSystem) snapshot() counters {
	st := s.eng.Stats()
	c := counters{wideJobs: st.WideJobs, served: []int64{st.JobsServed}, proc: readProc()}
	if st.Artifacts != nil {
		c.art = *st.Artifacts
	}
	return c
}

func (s *batchSystem) engineJobs() []nodeJob {
	var out []nodeJob
	for _, j := range s.eng.Jobs() {
		out = append(out, nodeJob{0, j})
	}
	return out
}

func (s *batchSystem) workers() int { return s.eng.Workers() }

func (s *batchSystem) close() { s.eng.Close() }
