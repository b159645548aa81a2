// Parallel: the partitioned shared-memory engine. Where the simulator
// exists to measure the protocol, the Parallel kind exists to decompose
// big graphs fast: the graph is sharded across worker goroutines that
// cascade their partitions concurrently and exchange batched
// per-destination estimate deltas between BSP rounds. The example sweeps
// worker counts on a power-law graph and reports wall time against the
// sequential Batagelj–Zaversnik baseline, plus the cross-partition
// traffic the §5 delta batching keeps bounded.
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
	fmt.Println("workers  rounds  estimates/node  time")

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
		fmt.Printf("%7d  %6d  %14.2f  %v\n",
			res.Workers, res.Rounds,
			float64(res.EstimatesSent)/float64(g.NumNodes()),
			res.WallTime.Round(time.Millisecond))
	}
}
