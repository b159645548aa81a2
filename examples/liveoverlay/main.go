// Liveoverlay: the one-to-one scenario on a "live" system (§1). Every
// node of a P2P-style overlay is a goroutine exchanging real messages.
// Three §3.3 termination mechanisms are demonstrated: the asynchronous
// run with centralized credit-counting, the decentralized epidemic
// detector, and a fixed round budget that trades exactness for latency
// (the paper's Figure 4 shows the error is tiny after a few rounds).
package main

import (
	"context"
	"fmt"
	"log"

	"dkcore"
)

func main() {
	// An unstructured overlay in the style of the Gnutella snapshots.
	g := dkcore.GenerateGNM(10000, 23500, 3)
	truth := dkcore.Decompose(g).CorenessValues()

	// Asynchronous live run: every node is a goroutine; termination via
	// the centralized credit-count detector.
	async := run(g, dkcore.Live, dkcore.SendOptimization(true))
	fmt.Printf("async live run:    %d messages, exact=%v\n", async.TotalMessages, equal(async.Coreness, truth))

	// Decentralized epidemic termination: nodes gossip the last round in
	// which anyone changed, and stop after a quiet window.
	epi := run(g, dkcore.LiveEpidemic, dkcore.QuietWindow(25), dkcore.Seed(5))
	fmt.Printf("epidemic run:      %d rounds, exact=%v\n", epi.Rounds, equal(epi.Coreness, truth))

	// Fixed-round budget: approximate but fast (§3.3, third option).
	for _, budget := range []int{3, 6, 12} {
		res := run(g, dkcore.Live, dkcore.MaxRounds(budget))
		wrong := 0
		for u := range truth {
			if res.Coreness[u] != truth[u] {
				wrong++
			}
		}
		fmt.Printf("fixed %2d rounds:   %5d of %d nodes still approximate (%.2f%%)\n",
			budget, wrong, g.NumNodes(), 100*float64(wrong)/float64(g.NumNodes()))
	}
}

// run decomposes g on one engine kind, exiting on any error.
func run(g *dkcore.Graph, kind dkcore.EngineKind, opts ...dkcore.EngineOption) *dkcore.Report {
	eng, err := dkcore.NewEngine(kind, opts...)
	if err != nil {
		log.Fatal(err)
	}
	rep, err := eng.Run(context.Background(), g)
	if err != nil {
		log.Fatal(err)
	}
	return rep
}

func equal(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
