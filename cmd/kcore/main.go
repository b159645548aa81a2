// Command kcore computes the k-core decomposition of an edge-list graph
// through the unified engine facade: every -mode is an engine kind.
//
// Usage:
//
//	kcore -in graph.txt [-mode KIND] [-hosts H] [-workers P] [-histogram]
//
// where KIND is one of sequential (alias seq), one2one, one2many, live,
// live-epidemic, parallel, cluster, oocore. The oocore mode keeps the
// estimates and support counters in memory and reads the adjacency from disk blocks
// through a cache of -mem-budget bytes (see -spill-dir and -block-size). The input is a
// whitespace-separated edge list ('#' comments allowed); "-" reads from
// stdin. With -histogram the tool prints shell sizes; otherwise it prints
// "id coreness" per node using the input's original node identifiers.
// Ctrl-C cancels a run cleanly mid-way.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"time"

	"dkcore"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "kcore:", err)
		os.Exit(1)
	}
}

// modeFlags are the CLI knobs a mode can consume; buildOptions below maps
// them onto the merged engine option set per kind.
type modeFlags struct {
	hosts     int
	workers   int
	seed      int64
	memBudget int64
	spillDir  string
	blockSize int
}

// buildOptions is the table-driven flag-to-option mapping: each engine
// kind lists the options its CLI flags translate to. Kinds absent from
// the table take no options.
var buildOptions = map[dkcore.EngineKind]func(f modeFlags) []dkcore.EngineOption{
	dkcore.OneToOne: func(f modeFlags) []dkcore.EngineOption {
		return []dkcore.EngineOption{dkcore.Seed(f.seed)}
	},
	dkcore.OneToMany: func(f modeFlags) []dkcore.EngineOption {
		return []dkcore.EngineOption{
			dkcore.Seed(f.seed),
			dkcore.Hosts(f.hosts),
			dkcore.DisseminationPolicy(dkcore.PointToPoint),
		}
	},
	dkcore.LiveEpidemic: func(f modeFlags) []dkcore.EngineOption {
		return []dkcore.EngineOption{dkcore.Seed(f.seed), dkcore.Workers(f.workers)}
	},
	dkcore.Parallel: func(f modeFlags) []dkcore.EngineOption {
		return []dkcore.EngineOption{dkcore.Workers(f.workers)}
	},
	dkcore.Cluster: func(f modeFlags) []dkcore.EngineOption {
		return []dkcore.EngineOption{dkcore.Hosts(f.hosts)}
	},
	dkcore.OutOfCore: func(f modeFlags) []dkcore.EngineOption {
		opts := []dkcore.EngineOption{dkcore.WithMemoryBudget(f.memBudget)}
		if f.spillDir != "" {
			opts = append(opts, dkcore.WithSpillDir(f.spillDir))
		}
		if f.blockSize > 0 {
			opts = append(opts, dkcore.WithBlockSize(f.blockSize))
		}
		return opts
	},
}

// modeList renders the registry as the -mode usage string.
func modeList() string {
	var names []string
	for _, k := range dkcore.EngineKinds() {
		names = append(names, k.String())
	}
	return strings.Join(names, ", ")
}

func run(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("kcore", flag.ContinueOnError)
	var (
		in        = fs.String("in", "-", "input edge list file, or - for stdin")
		mode      = fs.String("mode", "sequential", "engine kind: "+modeList())
		hosts     = fs.Int("hosts", 4, "number of hosts for -mode one2many / cluster")
		workers   = fs.Int("workers", 0, "worker goroutines for -mode parallel / live-epidemic (0 = all cores)")
		seed      = fs.Int64("seed", 1, "random seed for simulated runs")
		memBudget = fs.Int64("mem-budget", 256<<20, "decoded adjacency cache byte budget for -mode oocore")
		spillDir  = fs.String("spill-dir", "", "spill directory root for -mode oocore (default: OS temp)")
		blockSize = fs.Int("block-size", 0, "nodes per spilled block for -mode oocore (0 = default)")
		histogram = fs.Bool("histogram", false, "print shell-size histogram instead of per-node coreness")
		stats     = fs.Bool("stats", false, "print run statistics (rounds, messages, wall time) to stderr")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	kind, err := dkcore.ParseEngineKind(*mode)
	if err != nil {
		return err // already names the unknown mode and lists the valid ones
	}
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

	var opts []dkcore.EngineOption
	if build, ok := buildOptions[kind]; ok {
		opts = build(modeFlags{
			hosts: *hosts, workers: *workers, seed: *seed,
			memBudget: *memBudget, spillDir: *spillDir, blockSize: *blockSize,
		})
	}
	eng, err := dkcore.NewEngine(kind, opts...)
	if err != nil {
		return err
	}
	rep, err := eng.Run(ctx, g)
	if err != nil {
		return err
	}
	if *stats {
		printStats(os.Stderr, rep)
	}

	w := bufio.NewWriter(out)
	defer w.Flush()
	if *histogram {
		maxK := 0
		for _, k := range rep.Coreness {
			if k > maxK {
				maxK = k
			}
		}
		sizes := make([]int, maxK+1)
		for _, k := range rep.Coreness {
			sizes[k]++
		}
		for k, n := range sizes {
			if n > 0 {
				fmt.Fprintf(w, "%d %d\n", k, n)
			}
		}
		return nil
	}
	for u, k := range rep.Coreness {
		fmt.Fprintf(w, "%d %d\n", origID[u], k)
	}
	return nil
}

// printStats writes the populated Report metrics — one line, uniform
// across kinds, omitting fields the kind does not define.
func printStats(w io.Writer, rep *dkcore.Report) {
	fmt.Fprintf(w, "mode=%s wall=%s", rep.Kind, rep.WallTime.Round(time.Microsecond))
	if rep.Rounds > 0 {
		fmt.Fprintf(w, " rounds=%d", rep.Rounds)
	}
	if rep.ExecutionTime > 0 {
		fmt.Fprintf(w, " exec-time=%d", rep.ExecutionTime)
	}
	if rep.TotalMessages > 0 {
		fmt.Fprintf(w, " messages=%d", rep.TotalMessages)
	}
	if rep.EstimatesSent > 0 {
		fmt.Fprintf(w, " estimates-shipped=%d", rep.EstimatesSent)
	}
	if rep.Workers > 0 {
		fmt.Fprintf(w, " workers=%d", rep.Workers)
	}
	if rep.SpillBytesWritten > 0 || rep.SpillBytesRead > 0 {
		fmt.Fprintf(w, " spill-written=%d spill-read=%d", rep.SpillBytesWritten, rep.SpillBytesRead)
	}
	fmt.Fprintln(w)
}
