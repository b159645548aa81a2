// Parallel: the shared-memory frontier peel. Worker goroutines peel level
// by level over one degree array, lowering it with atomic decrements. The
// example sweeps worker counts on a power-law graph and reports wall time
// against the sequential Batagelj–Zaversnik baseline, plus the share of
// arcs (each walked once) whose decrement landed on a surviving node;
// levels and landed decrements do not depend on the worker count.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"dkcore"
)

func main() {
	g := dkcore.GeneratePowerLaw(dkcore.PowerLawConfig{N: 200000, Exponent: 2.2, MinDeg: 2}, 7)
	fmt.Printf("graph: %d nodes, %d edges\n\n", g.NumNodes(), g.NumEdges())

	start := time.Now()
	truth := dkcore.Decompose(g).CorenessValues()
	seqTime := time.Since(start)
	fmt.Printf("sequential baseline: %v\n\n", seqTime.Round(time.Millisecond))
	fmt.Println("workers  levels  landed/arcs  time")

	for _, workers := range []int{1, 2, 4, 8} {
		eng, err := dkcore.NewEngine(dkcore.Parallel, dkcore.Workers(workers))
		if err != nil {
			log.Fatal(err)
		}
		res, err := eng.Run(context.Background(), g)
		if err != nil {
			log.Fatal(err)
		}
		for u, k := range truth {
			if res.Coreness[u] != k {
				log.Fatalf("worker=%d: node %d got %d, want %d", workers, u, res.Coreness[u], k)
			}
		}
		fmt.Printf("%7d  %6d  %11.2f  %v\n",
			res.Workers, res.Rounds,
			float64(res.EstimatesSent)/float64(2*g.NumEdges()),
			res.WallTime.Round(time.Millisecond))
	}
}
