// Command kcore-coord runs the coordinator of a networked one-to-many
// deployment: it loads a graph, waits for -hosts kcore-host workers to
// connect, drives the protocol to termination, and prints the coreness.
//
// Usage:
//
//	kcore-coord -in graph.txt -hosts 4 -listen 127.0.0.1:7070
//
// then start four workers:
//
//	kcore-host -coord 127.0.0.1:7070
//
// Long-lived deployments enable the fault-tolerance machinery:
//
//	kcore-coord -in graph.txt -hosts 4 -checkpoint-every 16 \
//	    -rejoin-wait 2m -allow-join -compress
//
// which checkpoints every host every 16 rounds, waits up to two minutes
// for a replacement when a worker dies, admits extra workers joining
// mid-run, and flate-compresses its frames on the wire. A death or a
// join restarts every host at a round boundary, warm: each resumes
// from the checkpointed estimates, which bound the coreness from above.
// Progress and failures are logged as structured key=value lines on
// stderr; a host death reports who died, in which round, and the last
// round it acknowledged.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/signal"
	"time"

	"dkcore"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "kcore-coord:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("kcore-coord", flag.ContinueOnError)
	var (
		in        = fs.String("in", "-", "input edge list file, or - for stdin")
		hosts     = fs.Int("hosts", 2, "number of host workers to wait for")
		listen    = fs.String("listen", "127.0.0.1:7070", "address to listen on")
		histogram = fs.Bool("histogram", false, "print shell-size histogram instead of per-node coreness")
		ckptEvery = fs.Int("checkpoint-every", 0, "checkpoint every N rounds (0 = no checkpoints)")
		rejoin    = fs.Duration("rejoin-wait", 0, "how long to wait for a replacement when a host dies (0 = fail fast)")
		frameTO   = fs.Duration("frame-timeout", 0, "per-frame deadline on host connections; 0 = none (set it above the slowest host's per-round compute)")
		allowJoin = fs.Bool("allow-join", false, "admit workers joining after the run has started")
		compress  = fs.Bool("compress", false, "offer flate compression of every frame of 64 B or more")
		verbose   = fs.Bool("v", false, "log per-round debug detail")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	level := slog.LevelInfo
	if *verbose {
		level = slog.LevelDebug
	}
	log := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))

	var r io.Reader = os.Stdin
	if *in != "-" {
		f, err := os.Open(*in)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	g, origID, err := dkcore.ReadEdgeList(bufio.NewReader(r))
	if err != nil {
		return err
	}

	coord, err := dkcore.NewCoordinator(dkcore.ClusterConfig{
		Graph:           g,
		NumHosts:        *hosts,
		ListenAddr:      *listen,
		CheckpointEvery: *ckptEvery,
		RejoinWait:      *rejoin,
		FrameTimeout:    *frameTO,
		AllowJoin:       *allowJoin,
		Compression:     *compress,
		Log:             log,
	})
	if err != nil {
		return err
	}
	log.Info("listening", "addr", coord.Addr(), "hosts", *hosts,
		"nodes", g.NumNodes(), "edges", g.NumEdges())
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	start := time.Now()
	res, err := coord.RunContext(ctx)
	if err != nil {
		// The coordinator has already logged the proximate cause (which
		// host died, in which round, last acked round); this line marks
		// the shutdown decision itself.
		log.Error("run aborted", "err", err, "elapsed", time.Since(start).Round(time.Millisecond))
		return err
	}
	log.Info("converged", "rounds", res.Rounds, "estimates", res.EstimatesSent,
		"checkpoints", res.Checkpoints, "recoveries", res.Recoveries,
		"joins", res.Joins, "leaves", res.Leaves,
		"batchBytesRaw", res.BatchBytesRaw, "batchBytesWire", res.BatchBytesWire,
		"elapsed", time.Since(start).Round(time.Millisecond))

	w := bufio.NewWriter(out)
	defer w.Flush()
	if *histogram {
		maxK := 0
		for _, k := range res.Coreness {
			if k > maxK {
				maxK = k
			}
		}
		sizes := make([]int, maxK+1)
		for _, k := range res.Coreness {
			sizes[k]++
		}
		for k, n := range sizes {
			if n > 0 {
				fmt.Fprintf(w, "%d %d\n", k, n)
			}
		}
		return nil
	}
	for u, k := range res.Coreness {
		fmt.Fprintf(w, "%d %d\n", origID[u], k)
	}
	return nil
}
