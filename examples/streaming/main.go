// Streaming: maintain a k-core decomposition while the graph changes,
// two ways — single edge mutations through the incremental Maintainer
// (exact after every event), and a generated event stream replayed
// through it and written in the text format cmd/kcore-stream uses.
package main

import (
	"fmt"
	"log"
	"os"

	"dkcore"
)

func main() {
	// A small social-style base graph.
	g := dkcore.GenerateBarabasiAlbert(300, 3, 7)

	// 1. The incremental engine: exact coreness after every mutation.
	mt := dkcore.NewMaintainer(g)
	fmt.Printf("base graph: %d nodes, %d edges, degeneracy %d\n",
		mt.NumNodes(), mt.NumEdges(), mt.MaxCoreness())

	mt.InsertEdge(0, 299)
	mt.DeleteEdge(0, 1)
	fmt.Printf("after 2 events: degeneracy %d (node 299 coreness %d)\n",
		mt.MaxCoreness(), mt.Coreness(299))

	checkExact(mt)

	// 2. A generated churn stream, replayed through the engine.
	events := dkcore.GenerateChurnEvents(mt.Graph(), 500, 0.5, 42)
	for _, ev := range events {
		mt.Apply(ev)
	}
	fmt.Printf("after %d churn events: %d edges, degeneracy %d\n",
		len(events), mt.NumEdges(), mt.MaxCoreness())
	checkExact(mt)

	// The stream serializes to the "time op u v" text format that
	// cmd/kcore-stream replays.
	if err := dkcore.WriteEvents(os.Stdout, events[:3]); err != nil {
		log.Fatal(err)
	}
}

// checkExact cross-checks the maintainer against a fresh decomposition
// of its current graph.
func checkExact(mt *dkcore.Maintainer) {
	truth := dkcore.Decompose(mt.Graph())
	for u := 0; u < mt.NumNodes(); u++ {
		if mt.Coreness(u) != truth.Coreness(u) {
			log.Fatalf("node %d: incremental %d != recomputed %d", u, mt.Coreness(u), truth.Coreness(u))
		}
	}
	fmt.Println("incremental coreness matches full recomputation")
}
