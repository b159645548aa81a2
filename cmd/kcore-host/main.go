// Command kcore-host runs one host worker of a networked one-to-many
// deployment. It connects to a kcore-coord coordinator, receives its
// graph partition, exchanges estimate batches through the coordinator,
// and exits when the coordinator signals termination.
//
// Usage:
//
//	kcore-host -coord 127.0.0.1:7070
//
// A worker started while a run is already in progress either replaces a
// dead host or joins as extra capacity, depending on what the
// coordinator is waiting for. Either way it enters at the coordinator's
// next restart, seeded from the checkpointed estimates like every other
// host; the protocol is identical, so no extra flags are needed.
// Progress is logged as structured key=value lines on stderr.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"time"

	"dkcore"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "kcore-host:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("kcore-host", flag.ContinueOnError)
	var (
		coord    = fs.String("coord", "127.0.0.1:7070", "coordinator address")
		dialWait = fs.Duration("dial-wait", 10*time.Second,
			"keep retrying transient failures (coordinator not up yet, connection lost) with backoff for this long after the last good connection; 0 = fail on first error")
		frameTimeout = fs.Duration("frame-timeout", 0,
			"per-frame deadline on the coordinator connection; 0 = none (set it above round time plus the coordinator's -rejoin-wait)")
		verbose = fs.Bool("v", false, "log per-round debug detail")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	level := slog.LevelInfo
	if *verbose {
		level = slog.LevelDebug
	}
	log := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	res, err := dkcore.RunClusterHost(ctx, dkcore.HostConfig{
		CoordinatorAddr: *coord,
		RetryWait:       *dialWait,
		FrameTimeout:    *frameTimeout,
		Log:             log,
	})
	if err != nil {
		log.Error("host aborted", "err", err)
		return err
	}
	log.Info("done", "host", res.HostID, "nodes", len(res.Owned),
		"rounds", res.Rounds, "batchesSent", res.BatchesSent,
		"estimates", res.EstimatesSent)
	return nil
}
