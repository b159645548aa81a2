package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// runConfig is one invocation's settings.
type runConfig struct {
	workload workloadSpec
	seed     int64
	scale    float64
	seconds  float64
	workDir  string
	traceOut string
}

// setupRounds is how many times a run sets up; setup_s is their median,
// which keeps one slow write from deciding the metric.
const setupRounds = 3

// The measured window is cut into hundredths: one is the sub-window of
// a throughput leg — short, so that some fall between bursts of stolen
// CPU — and every leg's budget is a whole number of them. Batch legs
// share what the read leg leaves.
const (
	windowParts      = 100
	readPartsBatch   = 12 // read leg beside a batch deployment
	readPartsServe   = 30 // read leg of the serve workload
	ingestPartsServe = 8
	exactPartsServe  = 32
	altPartsServe    = 20
)

// outcome is everything a run learned.
type outcome struct {
	metrics   []Metric
	attempted int64
	failed    int64
	notes     []string
	nodes     int
	edges     int
	checksum  uint64
}

// timeSetUp runs the set-up step rounds times into the files' directory
// and returns the samples; the last round's files are the run's inputs.
func timeSetUp(cfg runConfig, files inputFiles, rounds int) ([]sample, error) {
	samples := make([]sample, 0, rounds)
	for i := 0; i < rounds; i++ {
		meter := startStealMeter()
		start := time.Now()
		if err := setUp(cfg.workload, cfg.seed, cfg.scale, files); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		samples = append(samples, sample{time.Since(start).Seconds(), meter.share()})
	}
	return samples, nil
}

// prepare sets up and loads a workload's inputs into a fresh directory
// under the work dir.
func prepare(cfg runConfig, rounds int) (*inputs, Metric, error) {
	dir := filepath.Join(cfg.workDir, fmt.Sprintf("%s-%d-%d", cfg.workload.name, cfg.seed, os.Getpid()))
	files := filesIn(dir)
	samples, err := timeSetUp(cfg, files, rounds)
	if err != nil {
		os.RemoveAll(dir)
		return nil, Metric{}, err
	}
	in, err := loadInputs(cfg.workload, files)
	if err != nil {
		os.RemoveAll(dir)
		return nil, Metric{}, fmt.Errorf("load inputs: %w", err)
	}
	return in, summarizeClean("setup_s", "s", samples), nil
}

// cleanUp removes the run's inputs, and the work directory when this run
// was the last thing in it.
func cleanUp(cfg runConfig, in *inputs) {
	os.RemoveAll(in.files.dir)
	os.Remove(cfg.workDir)
}

// runUntraced measures the end-to-end metrics of one workload.
func runUntraced(ctx context.Context, cfg runConfig) (*outcome, error) {
	in, setup, err := prepare(cfg, setupRounds)
	if err != nil {
		return nil, err
	}
	defer cleanUp(cfg, in)

	t := &tally{}
	part := time.Duration(cfg.seconds * float64(time.Second) / windowParts)
	var ms []Metric
	if cfg.workload.exact == depMutateWait {
		ms, err = serveScenario(ctx, cfg, in, part, t)
	} else {
		ms, err = batchScenario(ctx, cfg, in, part, t)
	}
	if err != nil {
		return nil, err
	}
	return newOutcome(in, t, append([]Metric{setup}, ms...)), nil
}

func newOutcome(in *inputs, t *tally, metrics []Metric) *outcome {
	return &outcome{
		metrics:   metrics,
		attempted: t.attempted.Load(),
		failed:    t.failed.Load(),
		notes:     t.notes,
		nodes:     in.g.NumNodes(),
		edges:     in.g.NumEdges(),
		checksum:  in.checksum,
	}
}

// batchScenario is a batch workload end to end: ingest the text file and
// decompose with the deployment under test (interleaved), note the
// memory high-water mark, decompose with the contrast deployment, then
// serve the result to closed-loop readers.
func batchScenario(ctx context.Context, cfg runConfig, in *inputs, part time.Duration, t *tally) ([]Metric, error) {
	w := cfg.workload
	batchBudget := part * (windowParts - readPartsBatch)
	one := runLegs(ctx, []leg{ingestLeg(in), batchLeg(in, w.exact, cfg.scale)}, batchBudget*time.Duration(10-w.altShare)/10, t)
	rss := peakRSSMiB()
	two := runLegs(ctx, []leg{batchLeg(in, w.alt, cfg.scale)}, batchBudget*time.Duration(w.altShare)/10, t)

	svc, err := openService(ctx, in)
	if err != nil {
		return nil, fmt.Errorf("open service: %w", err)
	}
	defer svc.close()
	rates, err := closedLoopReads(in, svc.dialBinary, true, cfg.seed, readPartsBatch, part, t)
	if err != nil {
		return nil, fmt.Errorf("read leg: %w", err)
	}
	return []Metric{
		summarizeClean("ingest_s", "s", one[0]),
		summarizeClean("exact_s", "s", one[1]),
		summarizeClean("exact_alt_s", "s", two[0]),
		single("peak_rss_mb", "MiB", rss),
		summarizeClean("serve_read_qps", "1/s", rates),
	}, nil
}

// serveScenario is the serve workload end to end: ingest, open the
// service, read beside light churn, then absorb waited bursts and
// coalesced bursts beside a paced reader, and finally recompute the
// served state from scratch.
func serveScenario(ctx context.Context, cfg runConfig, in *inputs, part time.Duration, t *tally) ([]Metric, error) {
	w := cfg.workload
	ingest := runLegs(ctx, []leg{ingestLeg(in)}, part*ingestPartsServe, t)

	svc, err := openService(ctx, in)
	if err != nil {
		return nil, fmt.Errorf("open service: %w", err)
	}
	defer svc.close()
	feed := &eventFeed{events: in.events}

	stopChurn := startChurn(svc.sess, feed, w.churnPerSec, t)
	rates, err := closedLoopReads(in, svc.dialBinary, false, cfg.seed, readPartsServe, part, t)
	stopChurn()
	if err != nil {
		return nil, fmt.Errorf("read leg: %w", err)
	}

	mutatesBefore := t.attempted.Load()
	waited, err := mutateBursts(ctx, in, svc, feed, w.exact, burstEvents(w.exact, cfg.scale), part*exactPartsServe, cfg.seed, t)
	if err != nil {
		return nil, fmt.Errorf("waited bursts: %w", err)
	}
	rss := peakRSSMiB()
	coalesced, err := mutateBursts(ctx, in, svc, feed, w.alt, burstEvents(w.alt, cfg.scale), part*altPartsServe, cfg.seed, t)
	if err != nil {
		return nil, fmt.Errorf("coalesced bursts: %w", err)
	}
	if err := svc.verifyFinal(); err != nil {
		t.failAll(t.attempted.Load()-mutatesBefore, "final state: %v", err)
	}
	return []Metric{
		summarizeClean("ingest_s", "s", ingest[0]),
		summarizeClean("exact_s", "s", waited.burstSeconds),
		summarizeClean("exact_alt_s", "s", coalesced.burstSeconds),
		single("peak_rss_mb", "MiB", rss),
		summarizeClean("serve_read_qps", "1/s", rates),
	}, nil
}
