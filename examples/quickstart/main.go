// Quickstart: build a small graph, decompose it through the unified
// Engine facade with several execution kinds, and serve queries from a
// long-lived Session while the graph keeps changing.
//
// The graph is the worked example from §3.1.1 of the paper (its Figure 2):
// a 7-edge graph whose middle nodes form a 2-core while the two endpoint
// nodes have coreness 1.
package main

import (
	"context"
	"fmt"
	"log"

	"dkcore"
)

func main() {
	ctx := context.Background()

	// 1-2, 2-3, 2-4, 3-4, 3-5, 4-5, 5-6 in the paper's 1-based labels.
	g := dkcore.FromEdges(6, [][2]int{
		{0, 1}, {1, 2}, {1, 3}, {2, 3}, {2, 4}, {3, 4}, {4, 5},
	})

	// Every execution path is one NewEngine call away; they all compute
	// the same coreness and return the unified Report.
	for _, kind := range []dkcore.EngineKind{dkcore.Sequential, dkcore.OneToOne, dkcore.Parallel} {
		var opts []dkcore.EngineOption
		if kind == dkcore.OneToOne {
			opts = append(opts, dkcore.Seed(42))
		}
		eng, err := dkcore.NewEngine(kind, opts...)
		if err != nil {
			log.Fatal(err)
		}
		rep, err := eng.Run(ctx, g)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-12s coreness=%v rounds=%d messages=%d wall=%s\n",
			rep.Kind, rep.Coreness, rep.Rounds, rep.TotalMessages, rep.WallTime)
	}

	// Inapplicable options are rejected up front with a descriptive
	// error instead of being silently ignored.
	if _, err := dkcore.NewEngine(dkcore.Sequential, dkcore.Seed(1)); err != nil {
		fmt.Println("option checking:", err)
	}

	// The serving story: decompose once, then query while mutating. A
	// Session keeps the decomposition exact under edge churn and is safe
	// for concurrent readers.
	sess, err := dkcore.NewSession(ctx, g)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("degeneracy=%d, 2-core members=%v\n", sess.Degeneracy(), sess.KCoreMembers(2))

	sess.InsertEdge(0, 5) // close the outer ring
	fmt.Printf("after insert: node 1 coreness=%d, degeneracy=%d\n",
		sess.Coreness(0), sess.Degeneracy())
	sess.DeleteEdge(0, 5)
	fmt.Printf("after delete: node 1 coreness=%d (restored)\n", sess.Coreness(0))

	// Certify the served result: exactly the coreness of the graph.
	if err := dkcore.Certify(sess.Snapshot(), sess.CorenessValues()); err != nil {
		log.Fatal(err)
	}
	fmt.Println("coreness certified")
}
